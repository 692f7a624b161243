"""Admission control at an edge server: planning, learning and evaluation.

The package is organised by layer:

- ``model``: states, actions, costs, the uniformized chain and its step, policy tables
- ``scenarios``: time-varying traffic (six scenario kinds)
- ``dp``: value iteration, policy extraction, structural checks
- ``salmut``: two-timescale threshold actor-critic
- ``learners``: tabular Q-learning and the static baseline
- ``evaluate``: discounted-cost rollouts and behavioral metrics
- ``config`` / ``cli``: JSON-config driven experiment entry points
"""

__version__ = "0.1.0"

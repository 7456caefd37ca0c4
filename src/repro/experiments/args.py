"""The scenario knobs as command-line flags, declared once.

``repro scenario``, ``repro campaign run`` and ``repro rt run`` each
describe a :class:`~repro.experiments.runner.ScenarioConfig`; they
register their flags with :func:`add_scenario_arguments` and read the
config back with :func:`config_from_args`.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable, Dict, Mapping, Optional

from repro.experiments.runner import ScenarioConfig
from repro.sim.loss import LOSS_KINDS

#: Config keyword -> (flag, ``add_argument`` keywords).
_FLAGS: Dict[str, Any] = {
    "cluster_count": ("--clusters", dict(type=int)),
    "members_per_cluster": ("--members", dict(type=int)),
    "loss_probability": ("--p", dict(type=float)),
    "loss_p": ("--loss-p", dict(
        type=float, help="loss intensity of the chosen loss kind")),
    "crash_count": ("--crashes", dict(type=int)),
    "executions": ("--executions", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "formation": ("--formation", dict(
        choices=("oracle", "protocol"),
        help="cluster formation: geometric oracle or the distributed "
             "six-round protocol")),
    "formation_iterations": ("--formation-iterations", dict(
        type=int,
        help="six-round formation iterations (protocol formation only)")),
    "formation_backoff_fraction": ("--formation-backoff", dict(
        type=float,
        help="RCC declaration backoff upper bound as a fraction of a "
             "round, in (0, 0.9]")),
    "loss_kind": ("--loss-kind", dict(
        choices=LOSS_KINDS, help="loss model kind")),
    "track_energy": ("--track-energy", dict(
        action="store_true",
        help="charge the per-node energy ledger and print its totals")),
    "engine": ("--engine", dict(
        choices=("event", "array"),
        help="'event' = discrete-event reference; 'array' = round-level "
             "numpy engine (both formation modes, scales to 10^6 nodes)")),
    "time_scale": ("--time-scale", dict(
        type=float,
        help="wall seconds per scenario second (phi=8 scenario seconds "
             "-> 0.4 wall seconds at 0.05)")),
}


def add_scenario_arguments(
    parser: argparse.ArgumentParser,
    defaults: Mapping[str, Any],
    flags: Optional[Mapping[str, str]] = None,
) -> None:
    """Register one flag per key of ``defaults`` (config keyword ->
    the command's default), each stored under its keyword.

    ``flags`` respells a flag for a command where the usual spelling is
    taken (``campaign run`` has a Monte-Carlo ``--p``).
    """
    for keyword, default in defaults.items():
        flag, options = _FLAGS[keyword]
        parser.add_argument(
            (flags or {}).get(keyword, flag),
            dest=keyword, default=default, **options,
        )
    parser.set_defaults(scenario_keywords=tuple(defaults))


def config_from_args(
    args: argparse.Namespace,
    build: Callable[..., ScenarioConfig] = ScenarioConfig,
) -> ScenarioConfig:
    """The scenario a command line describes: ``build`` (the config class,
    or a shorthand returning one) called with the registered keywords."""
    return build(
        **{keyword: getattr(args, keyword) for keyword in args.scenario_keywords}
    )

"""Sim-vs-real differential conformance (``differential:realnet``).

One seeded :class:`~repro.experiments.runner.ScenarioConfig` runs twice:
under the discrete-event simulator (virtual time) and under the asyncio
UDP runtime (:mod:`repro.rt.runtime`, wall time scaled by
``time_scale``).  Both runs derive topology and faultload from the same
named RNG streams, so the pair is
:func:`~repro.audit.differential.engine_pair_violations` -- the check
the soak runs between the event and array engines -- with one
difference: the phi-unit latency anchors are compared within
``tolerance_phi``, the band that absorbs asyncio timer jitter and socket
latency, and the verdict records (wall-clock times) are not compared.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.audit.differential import Violation, engine_pair_violations
from repro.experiments.runner import (
    ScenarioConfig,
    run_scenario,
    scenario_config,
)

#: Default wall-clock tolerance band for phi-unit latency comparison.
DEFAULT_TOLERANCE_PHI = 0.15


def realnet_spec(seed: int) -> ScenarioConfig:
    """Sample one runtime-sized spec from the realnet soak distribution.

    Wall time is real here, so the distribution stays small (two
    clusters, a handful of executions) and uses ``phi=8`` spec seconds:
    at the default ``time_scale=0.05`` one execution is 0.4 wall
    seconds and a whole run stays under ~2.5 s.
    """
    rng = np.random.default_rng(seed)
    loss_kind = str(rng.choice(["perfect", "perfect", "bernoulli", "bounded"]))
    return scenario_config(
        seed=int(rng.integers(0, 2**31 - 1)),
        cluster_count=2,
        members_per_cluster=int(rng.integers(5, 9)),
        crash_count=int(rng.integers(1, 3)),
        executions=int(rng.integers(3, 5)),
        loss_kind=loss_kind,
        loss_p=float(rng.choice([0.1, 0.15])),
        loss_budget=int(rng.integers(1, 3)),
        phi=8.0,
    )


def check_realnet(
    spec: ScenarioConfig, tolerance_phi: float = DEFAULT_TOLERANCE_PHI
) -> List[Violation]:
    """Run ``spec`` under sim and runtime; return every divergence."""
    return engine_pair_violations(
        run_scenario(replace(spec, engine="event")),
        run_scenario(replace(spec, engine="rt")),
        "realnet",
        tolerance_phi,
    )


def run_realnet_suite(
    count: int,
    seed: int = 0,
    time_scale: float = 0.05,
    tolerance_phi: float = DEFAULT_TOLERANCE_PHI,
    log=None,
) -> List[Tuple[ScenarioConfig, List[Violation]]]:
    """Check ``count`` seeded specs from the realnet distribution; each
    comes back with its violations (none = clean)."""
    verdicts = []
    for index in range(count):
        spec = replace(realnet_spec(seed + index), time_scale=time_scale)
        violations = check_realnet(spec, tolerance_phi)
        verdicts.append((spec, violations))
        if log is not None:
            status = "ok" if not violations else (
                f"{len(violations)} violation(s)"
            )
            log(
                f"realnet[{index}] seed={spec.seed} "
                f"loss={spec.loss_kind} crashes={spec.crash_count} "
                f"executions={spec.executions}: {status}"
            )
    return verdicts

"""Sim-vs-real differential conformance (``differential:realnet``).

One seeded :class:`~repro.audit.differential.ScenarioSpec` runs twice:
under the discrete-event simulator (virtual time) and under the asyncio
UDP runtime (:mod:`repro.rt.runtime`, wall time scaled by
``time_scale``).  Both runs derive topology and faultload from the same
named RNG streams, so the *loss-independent* structure is comparable
exactly; everything the wall clock or private loss draws can legitimately
perturb is compared through tolerance bands or oracles instead:

- **field shape** -- node/cluster counts, the crashed-node set, and each
  crash's execution index must match exactly (stream identity);
- **completeness oracle** -- when the spec's loss model keeps the drop
  budget within the forwarding tolerance
  (:func:`~repro.audit.differential.completeness_guaranteed`), the two
  runs' completeness verdicts must agree (the guarantee itself is the
  sim soak's oracle; realnet checks runtime conformance);
- **accuracy oracle** -- both runs must satisfy the same refutation
  discipline: any detection of a node that is operational at the end
  must be refuted later, unless it falls inside the final recovery
  window; on loss-free links the final suspicion state must be clean;
- **latency anchors** -- a crashed member is silent, so its CH detects
  it at ``0.4*phi + 2*thop`` after the crash regardless of the links.
  Per crashed target (excluding targets falsely detected *before* their
  crash in either run), detected-ness must agree and the phi-unit
  latencies must lie within ``tolerance_phi`` of each other -- the band
  that absorbs asyncio timer jitter and socket latency.

On divergence, :func:`realnet_repro_snippet` renders the spec as a
ready-to-paste seeded pytest case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.audit.differential import (
    ScenarioSpec,
    Violation,
    accuracy_violations,
    completeness_guaranteed,
    predetected_targets,
    snippet_parts,
)
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.rt.runtime import RtResult, RtScenario, run_rt_scenario

#: Default wall-clock tolerance band for phi-unit latency comparison.
DEFAULT_TOLERANCE_PHI = 0.15


def realnet_spec(seed: int) -> ScenarioSpec:
    """Sample one runtime-sized spec from the realnet soak distribution.

    Wall time is real here, so the distribution stays small (two
    clusters, a handful of executions) and uses ``phi=8`` spec seconds:
    at the default ``time_scale=0.05`` one execution is 0.4 wall
    seconds and a whole run stays under ~2.5 s.
    """
    rng = np.random.default_rng(seed)
    loss_kind = str(rng.choice(["perfect", "perfect", "bernoulli", "bounded"]))
    return ScenarioSpec(
        seed=int(rng.integers(0, 2**31 - 1)),
        cluster_count=2,
        members_per_cluster=int(rng.integers(5, 9)),
        crash_count=int(rng.integers(1, 3)),
        executions=int(rng.integers(3, 5)),
        loss_kind=loss_kind,
        loss_p=float(rng.choice([0.1, 0.15])),
        loss_budget=int(rng.integers(1, 3)),
        spacing_factor=1.25,
        max_backups=2,
        phi=8.0,
        thop=0.5,
    )


def _latencies_phi(result, phi: float) -> Dict[int, Optional[float]]:
    """Per-crashed-target detection latency in phi units."""
    return {
        int(nid): (None if seconds is None else seconds / phi)
        for nid, seconds in result.detection_latencies.items()
    }


# ----------------------------------------------------------------------
# The differential pair
# ----------------------------------------------------------------------
def check_realnet(
    spec: ScenarioSpec,
    time_scale: float = 0.05,
    tolerance_phi: float = DEFAULT_TOLERANCE_PHI,
    sim: Optional[ScenarioResult] = None,
    rt: Optional[RtResult] = None,
) -> List[Violation]:
    """Run ``spec`` under sim and runtime; return every divergence.

    ``sim``/``rt`` let a caller that already ran one side (or both)
    reuse the results; both runs must have used in-memory tracers.
    """
    if sim is None:
        sim = run_scenario(spec.to_config())
    if rt is None:
        rt = run_rt_scenario(RtScenario.from_spec(spec, time_scale=time_scale))
    violations: List[Violation] = []

    def diverged(description: str) -> None:
        violations.append(
            Violation(kind="differential:realnet", description=description)
        )

    # Field shape (stream identity makes exact equality the contract).
    if len(rt.nodes) != len(sim.network.nodes):
        diverged(
            f"node counts diverged: rt {len(rt.nodes)} != "
            f"sim {len(sim.network.nodes)}"
        )
    if len(rt.layout.clusters) != len(sim.layout.clusters):
        diverged(
            f"cluster counts diverged: rt {len(rt.layout.clusters)} != "
            f"sim {len(sim.layout.clusters)}"
        )
    sim_crashed = tuple(sorted(int(n) for n in sim.crash_times))
    rt_crashed = tuple(sorted(int(n) for n in rt.crash_times))
    if sim_crashed != rt_crashed:
        diverged(
            f"crashed-node sets diverged (faultload stream identity "
            f"broken): rt {rt_crashed} != sim {sim_crashed}"
        )
    else:
        sim_fds = sim.config.fds
        sim_execs = {
            int(nid): sim_fds.crash_execution(0.0, t)
            for nid, t in sim.crash_times.items()
        }
        rt_execs = {
            int(nid): rt.config.crash_execution(rt.fds_start, t)
            for nid, t in rt.crash_times.items()
        }
        if sim_execs != rt_execs:
            diverged(
                f"crash execution indices diverged: rt {rt_execs} != "
                f"sim {sim_execs}"
            )

    # Completeness oracle: when the loss model makes completeness
    # deterministic, the sim and rt verdicts must agree.  (Whether the
    # guarantee itself holds is the sim soak's oracle; realnet only
    # checks that the runtime conforms to the simulator.)
    if completeness_guaranteed(spec):
        sim_complete = sim.properties.is_complete
        rt_complete = rt.properties.is_complete
        if sim_complete != rt_complete:
            diverged(
                f"completeness verdicts diverged under deterministic "
                f"loss: sim {'complete' if sim_complete else 'incomplete'} "
                f"vs rt {'complete' if rt_complete else 'incomplete'}"
            )

    # Accuracy oracle on the runtime run (check_spec / the soak cover
    # the sim side), in the runtime's wall timebase: the recovery-window
    # excuse uses the wall-scaled phi, the horizon is the last traced
    # instant, and "no drops at all" counts the runtime's own loss draws.
    violations.extend(
        Violation(kind=v.kind, description=f"[realnet] {v.description}")
        for v in accuracy_violations(
            rt.config,
            rt.network.operational_ids(),
            max((r.time for r in rt.tracer.records), default=0.0),
            rt.losses,
            rt.tracer,
            rt.properties.accuracy_violations,
        )
    )

    # Loss-independent latency anchors, in phi units with a wall band.
    if sim_crashed == rt_crashed:
        sim_lat = _latencies_phi(sim, spec.phi)
        rt_lat = _latencies_phi(rt, rt.config.phi)
        exempt = predetected_targets(sim) | predetected_targets(rt)
        for target in sorted(set(sim_lat) - exempt):
            s, r = sim_lat[target], rt_lat.get(target)
            if (s is None) != (r is None):
                diverged(
                    f"crash of node {target} detected in "
                    f"{'sim' if s is not None else 'rt'} only "
                    f"(sim={s}, rt={r})"
                )
            elif s is not None and r is not None and abs(s - r) > tolerance_phi:
                diverged(
                    f"detection latency of node {target} off the anchor: "
                    f"rt {r:.3f} phi vs sim {s:.3f} phi "
                    f"(|delta| {abs(s - r):.3f} > tolerance {tolerance_phi})"
                )
    return violations


@dataclass
class RealnetVerdict:
    """One spec's differential outcome."""

    spec: ScenarioSpec
    violations: List[Violation]

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass
class RealnetSuiteResult:
    """A whole ``repro rt diff`` sweep."""

    verdicts: List[RealnetVerdict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(v.clean for v in self.verdicts)

    @property
    def failures(self) -> List[RealnetVerdict]:
        return [v for v in self.verdicts if not v.clean]


def run_realnet_suite(
    count: int,
    seed: int = 0,
    time_scale: float = 0.05,
    tolerance_phi: float = DEFAULT_TOLERANCE_PHI,
    log=None,
) -> RealnetSuiteResult:
    """Check ``count`` seeded specs from the realnet distribution."""
    result = RealnetSuiteResult()
    for index in range(count):
        spec = realnet_spec(seed + index)
        violations = check_realnet(
            spec, time_scale=time_scale, tolerance_phi=tolerance_phi
        )
        result.verdicts.append(RealnetVerdict(spec, violations))
        if log is not None:
            status = "ok" if not violations else (
                f"{len(violations)} violation(s)"
            )
            log(
                f"realnet[{index}] seed={spec.seed} "
                f"loss={spec.loss_kind} crashes={spec.crash_count} "
                f"executions={spec.executions}: {status}"
            )
    return result


def realnet_repro_snippet(
    spec: ScenarioSpec, violations: List[Violation]
) -> str:
    """A ready-to-paste pytest case reproducing a realnet divergence."""
    body, literal = snippet_parts(spec, violations)
    return (
        "from repro.audit.differential import ScenarioSpec\n"
        "from repro.audit.realnet import check_realnet\n"
        "\n"
        "\n"
        "def test_realnet_regression():\n"
        "    # Shrunk from a failing sim/real differential; observed:\n"
        f"{body}\n"
        f"    spec = {literal}\n"
        "    assert check_realnet(spec) == []\n"
    )

"""Workloads of the `ckflow run` benchmark: run files, seeded jitter, expectations.

Each workload has one timed operation and, on `graph_l3`, a known-defect
probe that runs beside it.  Workload seed 0 gives exactly the run files
documented in README.md; any other seed sets `sampling.seed` and scales
each semiaxis by a factor drawn uniformly from [1 - JITTER, 1 + JITTER].
"""

import random
from dataclasses import dataclass

JITTER = 0.005

# warm-up: the timed run file cut to a few steps (one smoothing pass included)
WARMUP_STEPS = 12

# The two Lagrangian operations stop at a flow time (`flow.t_end`) of 5 to
# 12 s of work, not at 345 steps (flat_l4 to t = 0.25) or at convergence
# (curved_l3, 1003 steps): the host's speed drifts by tens of percent within
# a minute, so a run takes the median of several operations rather than
# one 25-35 s operation, and its length stays near `--seconds` on a slow host.


@dataclass(frozen=True)
class Operation:
    """One `ckflow run` invocation and the outcome it should have."""

    name: str
    settings: tuple          # ordered (key, value) pairs of the run file
    expected_status: str     # the STATUS= word the run should print
    converges: bool          # verdict.txt must report convergence

    def run_file(self):
        lines = []
        for key, value in self.settings:
            if isinstance(value, tuple):
                value = "[" + ", ".join(f"{v:.12g}" for v in value) + "]"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def with_settings(self, changes):
        """A copy with the keys of `changes` replaced or appended."""
        changes = dict(changes)
        settings = [(k, changes.pop(k, v)) for k, v in self.settings]
        settings.extend(changes.items())
        return Operation(self.name, tuple(settings), self.expected_status,
                         self.converges)

    def jittered(self, workload, seed):
        """The operation for workload seed `seed` (seed 0: unchanged)."""
        if seed == 0:
            return self
        rng = random.Random(f"{workload}/{self.name}/{seed}")
        semiaxes = dict(self.settings)["seed.semiaxes"]
        jittered = tuple(a * (1.0 + rng.uniform(-JITTER, JITTER))
                         for a in semiaxes)
        return self.with_settings({"seed.semiaxes": jittered,
                                   "sampling.seed": seed})

    def warmup(self):
        return self.with_settings({"flow.max_steps": WARMUP_STEPS})


def _op(name, geometry, semiaxes, level, backend, expected_status,
        converges, t_end=None):
    settings = [
        ("geometry", geometry),
        ("seed.kind", "ellipsoid"),
        ("seed.semiaxes", semiaxes),
        ("seed.level", level),
        ("flow.backend", backend),
    ]
    if t_end is not None:
        settings.append(("flow.t_end", t_end))
    return Operation(name, tuple(settings), expected_status, converges)


@dataclass(frozen=True)
class Workload:
    name: str
    timed: Operation
    probe: Operation = None

    def operations(self, seed):
        """(timed, probe) operations for a workload seed; probe may be None."""
        probe = self.probe.jittered(self.name, seed) if self.probe else None
        return self.timed.jittered(self.name, seed), probe


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flat_l4",
            _op("flat_l4", "euclidean", (1.3, 1.0, 1.0), 4, "lagrangian",
                "nonconv", converges=False, t_end=0.06),
        ),
        Workload(
            "curved_l3",
            _op("curved_l3", "paper_example", (1.08, 1.0, 0.93), 3,
                "lagrangian", "nonconv", converges=False, t_end=0.1),
        ),
        Workload(
            "graph_l3",
            _op("graph_flat", "euclidean", (1.3, 1.0, 1.0), 3, "leaf_graph",
                "ok", converges=True),
            probe=_op("graph_curved_l2", "paper_example", (1.08, 1.0, 0.93),
                      2, "leaf_graph", "ok", converges=True),
        ),
    )
}

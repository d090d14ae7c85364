"""The benchmark's workloads: which point sets each one generates and why.

A workload is a list of instances, each one point set written to its own
``.xy`` file and covered by one ``udcover cover`` job per algorithm.
Only the generated files reach the program; the seed stays here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str        # generator: "square" or "disk"
    n: int            # points per instance
    density: float    # points per unit area
    instances: int
    why: str

    def smoke(self) -> "Workload":
        """The same workload at a size that runs in well under a second."""
        return Workload(self.name, self.shape, min(self.n, 300), self.density,
                        min(self.instances, 3), self.why)


# Sizes are scaled down from the n = 1e5 reference regime so that every
# algorithm gets several timed jobs per run; the density, which sets
# disks per point and so which code paths dominate, is kept.
WORKLOADS = {
    w.name: w for w in (
        Workload("uniform", "square", 10_000, 1.0, 1,
                 "density 1, the reference regime: 0.27-0.49 disks per "
                 "point, so per-point and per-disk work are mixed"),
        Workload("sparse", "disk", 8_000, 0.02, 1,
                 "density 0.02: about one disk per point, so per-disk work "
                 "(placement, coalesce probes, grid inserts, verify tree) "
                 "dominates"),
        Workload("dense", "square", 16_000, 50.0, 1,
                 "density 50: 1-2% disks per point, so per-point work "
                 "(own-cell hits, gates, sorting, hit probes) dominates"),
        Workload("small-batch", "disk", 500, 1.0, 150,
                 "many n=500 instances, one job each: fixed per-call cost "
                 "(argparse, file open, numpy set-up, tree build) dominates"),
    )
}


"""The benchmark's workloads and the seeded draw of their CLI arguments.

A workload is a batch of `python -m kummerchi ...` invocations.  Each
slot of the batch names a subcommand template and a window of sizes;
for every batch the seed draws one size inside each window, an output
format for each invocation and the order in which they run.  The
program sees only the resulting argv lists.

The windows are narrow on purpose.  Running time grows by 15-35 % per
unit of n in `table --genus 2`, `c-table`, `pd --dim 3` and `verify`,
so those slots have a fixed n and the seed draws only their format and
place in the batch; otherwise a batch's wall time would follow the
draw more than the program.  Range comes instead from several slots
per batch.

Every size stays inside the enumeration caps the program documents:
n <= 40 for ordinary partitions and DFS cross-checks of solid
partitions only up to n <= 12.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class Slot:
    """One invocation per batch: argv template with "{n}" and the window n is drawn from."""

    template: tuple[str, ...]
    window: tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]


def _slots(template: str, *windows: tuple[int, int]) -> tuple[Slot, ...]:
    return tuple(Slot(tuple(template.split()), w) for w in windows)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "table-g3",
            "g=3 table: Fraction series kernels (product_expansion, log) dominate; "
            "partitions and solid counting are not touched",
            _slots("table --max-n {n}", (150, 159), (170, 179), (190, 199)),
        ),
        Workload(
            "strata-g2",
            "g=2 table and c-table: partition enumeration, c(alpha) and its memo dominate; "
            "c-table writes large output through the CLI",
            _slots("table --genus 2 --max-n {n}", (28, 28), (30, 30))
            + _slots("c-table --max-n {n}", (29, 29), (31, 31)),
        ),
        Workload(
            "solid-d3",
            "pd --dim 3: layered solid-partition count with DFS cross-checks up to n=12 "
            "and the layered count alone above",
            _slots("pd --dim 3 --max-n {n}", (12, 12), (13, 13), (14, 14)),
        ),
        Workload(
            "verify-mixed",
            "verify: rational series log/exp, the signed c recursion as oracle and P_3 "
            "tables for g=4, so a gain for one caller that costs another shows",
            _slots("verify --genus 1,2,3,4 --max-n {n}", (12, 12))
            + _slots("verify --genus 1,2,3 --max-n {n}", (18, 18), (20, 20)),
        ),
    )
}


def batches(workload: Workload, seed: int) -> Iterator[list[list[str]]]:
    """Endless stream of batches; the same workload and seed give the same stream."""
    rng = random.Random(f"{workload.name}/{seed}")
    while True:
        batch = []
        for slot in workload.slots:
            n = rng.randint(*slot.window)
            argv = [part.format(n=n) for part in slot.template]
            batch.append(argv + ["--format", rng.choice(FORMATS)])
        rng.shuffle(batch)
        yield batch

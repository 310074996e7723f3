"""The inputs each workload runs on (constants only, so importing is free)."""

# The ROADMAP item-1 instance set for the ``map`` workload.
MAP_CIRCUITS = ("ghz_n4", "qft_n4", "adder_n4", "toffoli_n3", "linear_n5")
MAP_DEVICES = ("qx2", "line:5", "grid:2x3")

# ``augment``: every bundled circuit, cut with one plan, labeled on one device.
AUGMENT_BUDGETS = (6, 3)
AUGMENT_DEVICE = "line:5"

# ``train``: chunks of seeded random circuits, cut and labeled as in ``augment``.
TRAIN_SEED = 20241203
TRAIN_ROWS = 2000


def map_instances() -> list[tuple[str, str]]:
    return [(c, d) for c in MAP_CIRCUITS for d in MAP_DEVICES]

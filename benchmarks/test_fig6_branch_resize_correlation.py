"""Figure 6: branch-misprediction rate vs vector resize ratio.

The paper's non-intuitive discovery: the conditional-branch misprediction
rate observed on a vector correlates with how often the vector resizes
(the grow check is a rarely-taken branch, so every taken instance is a
near-guaranteed mispredict).  This bench profiles generated vector
applications — order-aware and order-oblivious, like the figure's (a) and
(b) panels — and reports the correlation.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.appgen.generator import generate_app
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2


def _collect(group_name, n_apps, gen_config, seed_base):
    points = []
    group = MODEL_GROUPS[group_name]
    for seed in range(n_apps):
        app = generate_app(seed_base + seed, group, gen_config)
        run = app.run(group.original, CORE2)
        stats = run.container.stats
        hw = run.hardware_counters()
        # Resize fires on insert, so the ratio is per insert invocation.
        resize_ratio = 100 * stats.resizes / max(1, stats.inserts)
        points.append((hw.branch_miss_rate, resize_ratio))
    return points


def test_fig6_branch_resize_correlation(benchmark, gen_config, scale,
                                        report):
    n_apps = max(30, scale.validation_apps // 2)

    def compute():
        return {
            "order-aware vector": _collect("vector", n_apps, gen_config,
                                           seed_base=60_000),
            "order-oblivious vector": _collect("vector_oo", n_apps,
                                               gen_config,
                                               seed_base=61_000),
        }

    panels = run_once(benchmark, compute)

    lines = []
    correlations = {}
    for panel, points in panels.items():
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        mask = ys > 0  # apps that resized at all
        corr = float(np.corrcoef(xs, ys)[0, 1]) if len(set(ys)) > 1 \
            else float("nan")
        correlations[panel] = corr
        lines.append(f"{panel}: {len(points)} apps, "
                     f"{int(mask.sum())} with resizes, "
                     f"corr(br-miss-rate, resize-ratio) = {corr:+.2f}")
        # A small scatter sample for the figure.
        for x, y in points[:8]:
            lines.append(f"    br_miss={x:.4f}  resize%={y:.2f}")
    lines.append("(paper: positive relation in both panels)")
    report("fig6_branch_resize_correlation", lines)

    for panel, corr in correlations.items():
        assert corr > 0.3, f"no positive correlation in {panel}"

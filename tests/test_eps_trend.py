"""The epsilon trend at a size where every cell's head list is full.

At the default 100k users the head list comes out short at epsilon <= 3,
so acceptance criterion 8 compares only two cells. At 1M users every
cell of the sweep below reaches the full M queries, and the trend is
checked over all six. Beside the blend, each run's opt-in and client
estimates are projected onto the simplex on their own and scored on the
same truth and final list, and the medians are printed as a table,
each beside its range over the seeds.
"""

import statistics

import pytest

from hybridhh import harness
from hybridhh.blend import project_to_simplex
from hybridhh.core import PrivacyParams
from hybridhh.metrics import score

EPSILONS = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0)
SEEDS = 5


@pytest.fixture(scope="module")
def sweep():
    """Each sweep row beside the scores of the run's opt-in-only and
    client-only estimates; a failed cell's run has none."""
    config = harness.ExperimentConfig(
        params=PrivacyParams(M=50, optin_fraction=0.05),
        seed=0,
        synth=harness.SynthSpec(users=1_000_000, queries=500, urls=4, exponent=1.0),
        sweep=harness.SweepAxes(epsilon=EPSILONS, seeds=SEEDS),
    )
    dataset = harness.load_dataset(config)
    truth = dict(zip(dataset.record_table, dataset.true_distribution.tolist()))
    results = []
    real_run = harness.run_blender

    def run(*args, **kwargs):
        results.append(real_run(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_blender", run)
        rows = harness.sweep(config, dataset)
    sides = {}
    for result in results:
        records = result.head_list.records()
        optin_p = project_to_simplex(result.optin_est.p)
        client_p = project_to_simplex(result.client_est.p[result.blended.client_slots])
        sides[result.row.seed] = tuple(
            score(dict(zip(records, p.tolist())), truth) for p in (optin_p, client_p)
        )
    return [(row, sides.get(row.seed)) for row in rows]


def test_every_cell_is_clean(sweep):
    assert len(sweep) == len(EPSILONS) * SEEDS
    unclean = [row for row, _ in sweep if row.status != "ok" or row.headlist_short]
    assert not unclean


def _median(pairs):
    pairs = list(pairs)
    return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)


def _spread(pairs):
    """Median L1 / NDCG over the seeds, each beside its min–max."""
    return " / ".join(
        f"{statistics.median(v):.4f} [{min(v):.4f}–{max(v):.4f}]" for v in zip(*pairs)
    )


def test_median_l1_falls_and_ndcg_rises_with_epsilon(sweep, capsys):
    by_eps = {eps: [(row, sides) for row, sides in sweep if row.epsilon == eps] for eps in EPSILONS}
    blend = {eps: _median((row.l1, row.ndcg) for row, _ in cell) for eps, cell in by_eps.items()}
    with capsys.disabled():
        print("\n| ε | blend | opt-in only | client only |\n|---|---|---|---|")
        for eps, cell in by_eps.items():
            scored = [sides for _, sides in cell if sides]
            columns = [[(row.l1, row.ndcg) for row, _ in cell]]
            columns += [[sides[i] for sides in scored] for i in (0, 1)]
            print(f"| {eps:g} | {' | '.join(map(_spread, columns))} |", flush=True)
    # Criterion 8's check, over every cell.
    assert all(
        blend[a][0] >= blend[b][0] - 1e-12 and blend[a][1] <= blend[b][1] + 1e-12
        for a, b in zip(EPSILONS, EPSILONS[1:])
    ), blend

"""Benchmark reproducing Fig. 9 / Tab. II: VTAB-like suite, winners vs FID domain gap."""

import numpy as np

from repro.experiments import fig9_vtab_fid

from benchmarks.conftest import report


def test_fig9_tab2_vtab_fid(scale, context, workers):
    table = fig9_vtab_fid.run(scale=scale, context=context, workers=workers)
    report(table)

    assert len(table) == 12  # the full VTAB-like suite
    fids = table.column("fid")
    assert all(fid >= 0.0 for fid in fids)
    assert fids == sorted(fids, reverse=True)  # presented in decreasing FID order
    assert all(row["winner"] in ("robust", "natural", "match") for row in table)

    # Paper claim (Tab. II): robust tickets win on large-FID (large domain gap)
    # tasks.  Check the correlation between FID and the robust-natural gap.
    gaps = np.asarray(table.column("gap"), dtype=float)
    fids = np.asarray(fids, dtype=float)
    correlation = float(np.corrcoef(fids, gaps)[0, 1]) if gaps.std() > 0 else float("nan")
    high_gap_wins = sum(row["winner"] == "robust" for row in table.rows[:6])
    print(f"\ncorrelation(FID, robust-natural gap) = {correlation:+.3f}")
    print(f"robust wins among the 6 largest-FID tasks: {high_gap_wins}/6")

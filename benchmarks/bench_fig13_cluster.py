"""Fig. 13 — cluster upgrade: migrations and time gain vs InPlaceTP share.

Paper anchors on the 10-host x 10-VM cluster: 154 migrations at 0 %
compatibility; 109 (-17 % time) at 20 %; ~73 % fewer migrations / 68 % less
time at 60 %; 25 migrations / ~80 % gain at 80 % (3 min 54 s vs up to
19 min all-migration).
"""

from repro.bench.report import format_table, print_experiment
from repro.fleet import UpgradeCampaign

FRACTIONS = [0.0, 0.2, 0.4, 0.6, 0.8]
PAPER_MIGRATIONS = {0.0: 154, 0.2: 109, 0.6: 42, 0.8: 25}
PAPER_GAINS = {0.2: 0.17, 0.6: 0.68, 0.8: 0.80}


def run():
    campaign = UpgradeCampaign()
    results = campaign.sweep(FRACTIONS)
    gains = UpgradeCampaign.time_gains(results)
    rows = []
    for result, gain in zip(results, gains):
        fraction = result.inplace_fraction
        rows.append([
            f"{fraction:.0%}",
            result.migration_count,
            PAPER_MIGRATIONS.get(fraction, "-"),
            result.total_minutes,
            f"{gain:.0%}",
            f"{PAPER_GAINS[fraction]:.0%}" if fraction in PAPER_GAINS else "-",
        ])
    return rows


HEADERS = ["InPlaceTP share", "migrations", "paper", "total (min)",
           "time gain", "paper gain"]


def test_fig13_cluster(benchmark):
    rows = benchmark(run)
    print_experiment("Fig. 13", "cluster upgrade vs InPlaceTP share",
                     format_table(HEADERS, rows))


if __name__ == "__main__":
    print_experiment("Fig. 13", "cluster upgrade vs InPlaceTP share",
                     format_table(HEADERS, run()))

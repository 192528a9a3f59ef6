"""The population commands stay in type space: none builds an m x n array.

A population of three types is generated, priced and swept at a size where
one m x n float64 array dwarfs the O(m) labels and type ids, and each
command's traced peak must stay below half of that one array.
"""
import tracemalloc

from fairrec import cli

USERS, ITEMS = 40_000, 60
VALUES = ",".join(str(v) for v in range(ITEMS, 0, -1))
MATRIX_BYTES = USERS * ITEMS * 8


def test_population_commands_never_gather_the_matrix(tmp_path, capsys):
    d = f"{tmp_path}/"
    common = ["--values", VALUES, "--beta", "0.3", "--users", str(USERS), "--seed", "7"]
    commands = {
        "generate misest": ["generate", "misest", *common, "--out", d + "pop.csv"],
        "misest": ["misest", *common, "--scope", "misest-group", "--gammas", "11", "--out", d + "pom.csv"],
        "tradeoff --matrix": ["tradeoff", "--matrix", d + "pop.hat.csv", "--gammas", "11", "--out", d + "t.csv"],
    }
    peaks = {}
    for name, argv in commands.items():
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < MATRIX_BYTES / 2 for peak in peaks.values()), (MATRIX_BYTES, peaks)

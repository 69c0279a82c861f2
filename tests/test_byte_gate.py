"""The byte gate's set, run twice in one process, writes the same bytes.

A second run that differs from the first means state leaks from one run
into the next, such as an input written in place or a cached array. The
hashes themselves are not pinned: NumPy's SIMD exp, log and trigonometric
functions can differ in the last bit from one CPU to another.
"""

import hashlib

from byte_gate import RUNS, gate_lines, main


def test_set_writes_the_same_bytes_twice(tmp_path):
    first = gate_lines(tmp_path / "first", tiny=True)
    second = gate_lines(tmp_path / "second", tiny=True)
    assert first == second
    csv_lines = [line for line in first if line.endswith(".csv")]
    assert len(csv_lines) >= len(RUNS)
    assert sum(line.startswith("convergence:") for line in first) == 2


def test_out_keeps_the_outputs(tmp_path, capsys):
    assert main(["--tiny", "--out", str(tmp_path)]) == 0
    csv_lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.endswith(".csv")]
    assert len(csv_lines) >= len(RUNS)
    for line in csv_lines:
        digest, rel = line.split("  ")
        assert hashlib.sha1((tmp_path / rel).read_bytes()).hexdigest() \
            == digest

"""CLI output stays byte-stable: digests of a fixed command grid.

``cli_digests.json`` holds the sha256 of stdout and the exit code of 188
in-process ``cli.main`` calls: for every catalog entry ``validate``,
``project``, ``standard-orange``, ``dim`` at (r, d) = (0, 2), (1, 3),
(2, 4), ``hilbert --r 1 --dmax 5``, ``layers --d 3`` and ``mds`` at
(0, 3), (1, 3), then the default ``sweep``, then ``domain-points`` at
d = 0 and 2 for every catalog entry, then ``hilbert --r 2 --dmax 8`` for
every catalog entry (at r = 2 the cofactor columns start at degree 3),
then ``layers`` and ``mds --r 1`` at d = 0 and 1 for every catalog entry
(d = 0 has no layer scale j/d, and at d = 1 every layer but the top one
has scale 0), all with ``--json``.  After them come 11 entries keyed
``dump-system:`` plus the command, holding the sha256 of the file that
``dim -c NAME --r 2 --d 4 --dump-system PATH --json`` writes for every
catalog entry (the key shows ``PATH``; the file's bytes do not depend on
it), so the cofactor system itself is pinned, not only its nullity.
Regenerate it with ``python tests/test_cli_stability.py`` only when an
output change is intended.  The file must keep at least its 199 entries
(188 commands and 11 files): a regeneration that drops commands fails
the test, and the script refuses to write it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from orangesplines.catalog import names
from orangesplines.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")
MIN_ENTRIES = 199


def _commands() -> list[list[str]]:
    out = []
    for name in names():
        src = ["-c", name]
        out += [
            ["validate", *src],
            ["project", *src],
            ["standard-orange", *src],
            *(["dim", *src, "--r", r, "--d", d] for r, d in (("0", "2"), ("1", "3"), ("2", "4"))),
            ["hilbert", *src, "--r", "1", "--dmax", "5"],
            ["layers", *src, "--d", "3"],
            *(["mds", *src, "--r", r, "--d", "3"] for r in ("0", "1")),
        ]
    out.append(["sweep"])
    out += [["domain-points", "-c", name, "--d", d] for name in names() for d in ("0", "2")]
    out += [["hilbert", "-c", name, "--r", "2", "--dmax", "8"] for name in names()]
    for name in names():
        out += [["layers", "-c", name, "--d", d] for d in ("0", "1")]
        out += [["mds", "-c", name, "--r", "1", "--d", d] for d in ("0", "1")]
    return [argv + ["--json"] for argv in out]


def _dump_commands() -> list[list[str]]:
    return [
        ["dim", "-c", name, "--r", "2", "--d", "4", "--dump-system", "PATH", "--json"]
        for name in names()
    ]


def _run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, hashlib.sha256(stdout.getvalue().encode()).hexdigest()


def _digests() -> dict[str, dict[str, object]]:
    out = {}
    for argv in _commands():
        rc, digest = _run(argv)
        out[" ".join(argv)] = {"exit_code": rc, "stdout_sha256": digest}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        for argv in _dump_commands():
            rc, _ = _run([str(path) if a == "PATH" else a for a in argv])
            out["dump-system: " + " ".join(argv)] = {
                "exit_code": rc,
                "file_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            }
            path.unlink()
    return out


def test_cli_output_matches_the_recorded_digests():
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) >= MIN_ENTRIES, len(expected)
    got = _digests()
    assert len(got) == 199
    assert list(got) == list(expected)
    changed = [cmd for cmd in got if got[cmd] != expected[cmd]]
    assert not changed, changed


if __name__ == "__main__":
    digests = _digests()
    if len(digests) < MIN_ENTRIES:
        raise SystemExit(f"{len(digests)} digests, fewer than {MIN_ENTRIES}: not written")
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")

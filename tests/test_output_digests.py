"""scripts/output_digests.py --against: the digests of a run compared with the
saved standard output of another."""

import os
import subprocess
import sys
from pathlib import Path

import ganc

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def _digests(work, *extra):
    """(exit code, stdout, stderr) of the script on a small shape."""
    env = {**os.environ, "PYTHONPATH": str(Path(ganc.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--work", str(work), "--users", "60",
                           "--items", "120", "--epochs", "2", *extra],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_against_names_each_artifact_that_differs_is_missing_or_is_new(tmp_path):
    code, saved, _ = _digests(tmp_path / "w")
    assert code == 0 and len(saved.splitlines()) == 74
    (tmp_path / "same.txt").write_text(saved)
    code, out, err = _digests(tmp_path / "w", "--against", str(tmp_path / "same.txt"))
    assert (code, out) == (0, saved)
    assert "differs" not in err and "missing" not in err and "new:" not in err

    lines = saved.splitlines()
    changed, dropped = lines[0].split("  ")[1], lines[1].split("  ")[1]
    edited = ["0" * 64 + "  " + changed, *lines[2:], "0" * 64 + "  gone/topn.csv"]
    (tmp_path / "other.txt").write_text("\n".join(edited) + "\n")
    code, out, err = _digests(tmp_path / "w", "--against", str(tmp_path / "other.txt"))
    assert (code, out) == (1, saved)
    assert err.splitlines()[-3:] == [f"differs: {changed}", "missing: gone/topn.csv",
                                     f"new: {dropped}"]

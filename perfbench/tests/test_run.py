import shutil
import subprocess
import sys

from perfbench import run


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the runner exits
    non-zero without printing a result."""
    shutil.copy(f"{run.ROOT}/BENCHMARK.json", tmp_path)
    shutil.copytree(f"{run.ROOT}/perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no program source" in proc.stderr

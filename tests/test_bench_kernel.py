"""Smoke test of scripts/bench_kernel.py at tiny sizes."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_kernel", ROOT / "scripts" / "bench_kernel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_times_every_shape_on_every_tree():
    bench = _script()
    src = str(ROOT / "src")
    shapes = (("1 x 51", "kernel", 1, 50), ("3 x 1500", "kernel", 3, 1500),
              ("5 x 30 draws", "sampling", 5, 30))
    times = bench.bench([src], shapes=shapes, runs=3)
    assert set(times) == {(label, src) for label, *_ in shapes}
    for wall, cpu in times.values():
        assert len(wall) == len(cpu) == 3
        assert all(w > 0.0 for w in wall) and all(c >= 0.0 for c in cpu)
        median, quartiles = bench.summary(wall).split(" ", 1)
        assert float(median) > 0.0 and quartiles.startswith("[")


def test_workload_runs_the_tree_it_was_given(monkeypatch):
    # several rows step the loaded package's Recursion.advance in time
    # blocks of 2001 columns; one row runs its recursion_batch; sampling
    # runs its map_row_blocks
    bench = _script()
    tree = bench.load(str(ROOT / "src"), 0)
    calls = []
    real = tree.kernels.Recursion.advance
    monkeypatch.setattr(tree.kernels.Recursion, "advance",
                        lambda self, eps, a: calls.append(a)
                        or real(self, eps, a))
    bench.workload(tree, "kernel", 2, 4100)()
    assert calls == [0, 2001, 4002]
    sigma_sq, _, overflow_at = bench.workload(tree, "kernel", 1, 40)()
    assert sigma_sq.shape == (1, 41) and overflow_at[0] == -1
    spans = []
    real_map = tree.kernels.map_row_blocks
    monkeypatch.setattr(tree.kernels, "map_row_blocks",
                        lambda fn, rows, block_rows: spans.append(
                            (rows, block_rows))
                        or real_map(fn, rows, block_rows))
    bench.workload(tree, "sampling", 40, 2001)()
    assert spans == [(40, 16)]

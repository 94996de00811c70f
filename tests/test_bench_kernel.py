"""Smoke test of scripts/bench_kernel.py at tiny sizes."""
import importlib.util
import shutil
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
              ("3 x 1500, blocks of 700", "kernel", 3, 1500, 700),
              ("5 x 30 draws", "sampling", 5, 30),
              ("4 x 1 draw calls", "call", 4, 1))
    times = bench.bench([src], shapes=shapes, runs=3)
    assert set(times) == {(label, 0) for label, *_ in shapes}
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
    tree = bench.load(str(ROOT / "src"))
    calls = []
    real = tree.kernels.Recursion.advance
    monkeypatch.setattr(tree.kernels.Recursion, "advance",
                        lambda self, eps, a: calls.append((a, eps.shape[1]))
                        or real(self, eps, a))
    bench.workload(tree, "kernel", 2, 4100)()
    assert calls == [(0, 2001), (2001, 2001), (4002, 99)]
    calls.clear()
    bench.workload(tree, "kernel", 2, 4100, 1001)()
    assert calls == [(0, 1001), (1001, 1001), (2002, 1001), (3003, 1001),
                     (4004, 97)]
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


def test_draw_calls_take_one_draw_each(monkeypatch):
    bench = _script()
    tree = bench.load(str(ROOT / "src"))
    counts = []
    real = tree.innovations.sample_innovations
    monkeypatch.setattr(tree.innovations, "sample_innovations",
                        lambda spec, count, *args, **kwargs: counts.append(
                            count) or real(spec, count, *args, **kwargs))
    bench.workload(tree, "call", 6, 1)()
    assert counts == [1] * 6


def test_each_load_imports_its_own_tree(tmp_path):
    # a tree loaded after another, in one process, runs its own files
    bench = _script()
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "mdgarch", copy / "mdgarch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    first, second = bench.load(str(ROOT / "src")), bench.load(str(copy))
    for tree, src in ((first, ROOT / "src"), (second, copy)):
        for module in vars(tree).values():
            assert Path(module.__file__).parent == src / "mdgarch"


def test_one_tree_given_twice_is_timed_twice(monkeypatch):
    # timings are keyed by the tree's position, so `--src src --src src`
    # prints a row per position, each of its own runs; every round starts
    # with an untimed run of its first job
    bench = _script()
    src = str(ROOT / "src")
    shapes = (("1 x 51", "kernel", 1, 50), ("2 x 500 diagnostic pass",
                                             "diagnostic", 2, 500))
    trees = []
    real_load = bench.load
    monkeypatch.setattr(bench, "load",
                        lambda path: trees.append(real_load(path))
                        or trees[-1])
    times = bench.bench([src, src], shapes=shapes, runs=2)
    assert set(times) == {(label, i) for label, *_ in shapes for i in (0, 1)}
    assert all(len(wall) == len(cpu) == 2 for wall, cpu in times.values())
    lines = bench.table(times, [src, src], shapes)
    assert [line.split(" | ")[:2] for line in lines] == \
        [[label, src] for label, *_ in shapes for _ in (0, 1)]
    assert len(trees) == 2


def test_rounds_start_with_an_untimed_run(monkeypatch):
    bench = _script()
    calls = []
    monkeypatch.setattr(bench, "load", lambda path: path)
    monkeypatch.setattr(bench, "workload",
                        lambda tree, layer, *shape: lambda: calls.append(
                            (layer, tree)))
    bench.bench(["a", "b"], shapes=(("x", "kernel", 1, 5),
                                    ("y", "sampling", 1, 5)), runs=2)
    # one untimed warm-up round, then two timed rounds, each led by an
    # untimed run of its first job
    jobs = [("kernel", "a"), ("kernel", "b"), ("sampling", "a"),
            ("sampling", "b")]
    assert calls == ([("kernel", "a")] + jobs) * 3


def test_diagnostic_pass_maps_per_thread():
    # the diagnostic shape runs the tree's harness pass; its bytes per
    # thread are the tiles and the innovation row a thread maps
    bench = _script()
    tree = bench.load(str(ROOT / "src"))
    fn = bench.workload(tree, "diagnostic", 2, 100000)
    got = fn()
    assert set(got) == {"lemma", "remainders"} and len(got["lemma"]) == 2
    mapped = bench.mapped_per_thread(fn)
    # one (1, 80000) row and four tiles of at most 20008 columns, each
    # row padded to an odd number of cache lines
    assert 8 * (80000 + 4 * 20008) <= mapped <= 8 * (80008 + 4 * 20024)

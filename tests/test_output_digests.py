"""Smoke test of scripts/output_digests.py at tiny sizes."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_give_identical_lines():
    digests = _script()
    cases = (digests.Case("verify NS", "verify", "NS", 400, 100),
             digests.Case("diagnose NE literal", "diagnose", "NE", 400, 20,
                          options=("--mode", "literal")))
    src = str(ROOT / "src")
    runs = [list(digests.digests([src, src], 7, cases)) for _ in range(2)]
    assert runs[0] == runs[1]
    assert [(case.label, tree) for case, tree, *_ in runs[0]] == [
        (case.label, src) for case in cases for _ in range(2)]
    empty = digests.files_digest(str(ROOT / "no such directory"))
    for _, _, rc, digest in runs[0]:
        # a finished run, passed or failed, that wrote its files
        assert rc in (0, 1) and len(digest) == 64 and digest != empty
    # both trees, loaded as packages of their own, agree
    for first, second in zip(runs[0][::2], runs[0][1::2]):
        assert first[2:] == second[2:]

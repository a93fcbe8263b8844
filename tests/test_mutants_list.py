"""The mutants `tools/mutants.py` runs still name text their target file holds
exactly once, so a change to the source cannot quietly retire one."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_listed_mutant_applies_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = {
        "mutants_beam.txt", "mutants_cli.txt", "mutants_generator.txt", "mutants_inputs.txt", "mutants_lm.txt",
        "mutants_nsp.txt",
    }
    assert names <= {path.name for path in mutants.MUTANT_FILES}
    for path in mutants.MUTANT_FILES:
        tests, listed = mutants.load(path)
        assert listed and all((ROOT / test).is_file() for test in tests)
        for _, target, old, new in listed:
            source = (ROOT / target).read_text(encoding="utf-8")
            assert mutants.mutate(source, old, new) != source

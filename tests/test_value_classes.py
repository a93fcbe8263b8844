"""Every dataclass of the package is slotted: its instances have no
`__dict__`, so `vars()` fails on them. A dataclass added to the package
fails here until an instance of it is made below."""

import dataclasses
import importlib
import pkgutil

import pytest

import syllabeam
from syllabeam.beam import FusionConfig, TraceStep
from syllabeam.corpus import AlignedPair, LyricSequence, MelodyNote, MelodySequence, SyllableToken
from syllabeam.lm import SPACED, ContinuationScore
from syllabeam.metrics import EvalPair, EvalReport
from syllabeam.nsp import BuilderConfig

TOKEN = SyllableToken("la", True)
LYRIC = LyricSequence((TOKEN,))
NOTE = MelodyNote(60, 1.0, 0.0)
MELODY = MelodySequence((NOTE,))
INSTANCES = [
    TOKEN,
    LYRIC,
    NOTE,
    MELODY,
    AlignedPair(MELODY, LYRIC),
    ContinuationScore(0.5, SPACED),
    TraceStep(0.5, None, SPACED, 0.5),
    FusionConfig(),
    EvalPair(LYRIC, LYRIC),
    EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1),
    BuilderConfig(),
]


def package_dataclasses() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(syllabeam.__path__):
        module = importlib.import_module(f"syllabeam.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__:
                found.add(value)
    return found


def test_each_dataclass_has_an_instance_here():
    assert package_dataclasses() == {type(instance) for instance in INSTANCES}


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda instance: type(instance).__name__)
def test_instances_have_no_dict(instance):
    assert not hasattr(instance, "__dict__")
    with pytest.raises(TypeError):
        vars(instance)

"""The offline pipeline's fast paths give what their one-at-a-time forms give.

`train_char_ngram` counts each level over all texts at once, and
`train_generator` tallies (history, bucket, syllable) events before adding
them to the four generator tables; their tables must equal counts taken one
character, or one event, at a time. `nsp-eval` scores the rows `read_nsp_blocks`
checks through `score_nsp_file`, `nsp_metrics` counts each tie group in one
pass, and `load_aligned_corpus` shares equal tokens and notes; each is
checked against the form it replaced.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllabeam.cli import main
from syllabeam.corpus import (
    BOS_TEXT,
    EOS_TEXT,
    build_vocabulary,
    load_aligned_corpus,
    render_text,
    write_aligned_corpus,
)
from syllabeam.generator import bucket_note, train_generator
from syllabeam.lm import (
    EOS_CHAR,
    CharNgramModel,
    lyric_lm_text,
    nsp_accuracy,
    nsp_metrics,
    train_char_ngram,
)
from syllabeam.nsp import BuilderConfig, NspExample, build_dataset, nsp_line

from conftest import make_corpus, random_syllable_corpus

texts = st.lists(st.text("abo ' " + EOS_CHAR, max_size=12), min_size=1, max_size=6)


def per_character_counts(texts, order):
    """tables[L][context][ch] as add_text once counted them: one character
    and one level at a time."""
    tables = [{} for _ in range(order)]
    for text in texts:
        for pos, ch in enumerate(text):
            for length in range(order):
                if pos - length < 0:
                    break
                table = tables[length].setdefault(text[pos - length : pos], {})
                table[ch] = table.get(ch, 0) + 1
    return tables


@settings(max_examples=100, deadline=None)
@given(texts=texts, order=st.integers(1, 8))
def test_train_char_ngram_counts_what_add_text_counts(texts, order):
    # up to order 8, many texts lie wholly within their first order-1
    # characters, where no order-gram of the text ends
    assert train_char_ngram(texts, order, 0.1)._tables == per_character_counts(texts, order)


def test_train_char_ngram_rejects_the_first_bad_text_as_add_text_does():
    with pytest.raises(ValueError, match=r"^character 'X' at position 1 not in alphabet$"):
        train_char_ngram(["ab", "aXb", "a?"], 3, 0.1)


def per_event_counts(pairs, history):
    """The four generator tables as add_pair once counted them: one
    (history, bucket, syllable) event and one table at a time."""
    hist_bucket, hist, bucket, unigram = {}, {}, {}, {}
    for pair in pairs:
        texts = [BOS_TEXT] * history
        events = [(tok.text, bucket_note(note)) for tok, note in zip(pair.lyric.syllables(), pair.melody.notes)]
        for text, note_bucket in events + [(EOS_TEXT, None)]:
            key = tuple(texts[-history:])
            for table, table_key in ((hist_bucket, (key, note_bucket)), (hist, key), (bucket, note_bucket)):
                slot = table.setdefault(table_key, {})
                slot[text] = slot.get(text, 0) + 1
            unigram[text] = unigram.get(text, 0) + 1
            texts.append(text)
    return hist_bucket, hist, bucket, unigram


def generator_tables(model):
    return model._by_hist_bucket, model._by_hist, model._by_bucket, model._unigram


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    pairs=st.integers(1, 12),
    kind=st.sampled_from(["words", "syllables"]),
    history=st.integers(1, 4),
)
def test_train_generator_counts_what_add_pair_counts(seed, pairs, kind, history):
    if kind == "words":
        corpus = make_corpus(pairs, seed=seed, min_syllables=1, max_syllables=8)
    else:
        corpus = random_syllable_corpus(pairs, seed=seed)
    vocab = build_vocabulary([p.lyric for p in corpus])
    trained = train_generator(corpus, vocab, history, 0.1)
    assert generator_tables(trained) == per_event_counts(corpus, history)


CORPORA = {
    "words": lambda: make_corpus(60, seed=71),
    "syllables": lambda: random_syllable_corpus(60, seed=72),
}


def nsp_eval(capsys, tsv, lm_path):
    code = main(["nsp-eval", "--dataset", str(tsv), "--lm", str(lm_path)])
    captured = capsys.readouterr()
    return code, captured.out.splitlines()[1:], captured.err


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_nsp_eval_prints_nsp_accuracy_of_nsp_score(tmp_path, capsys, corpus):
    pairs = CORPORA[corpus]()
    model = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in pairs], 4, 0.1)
    model.save(tmp_path / "lm.json")
    rows = []
    build_dataset([p.lyric for p in pairs], BuilderConfig(seed=5), rows.append)
    (tmp_path / "nsp.tsv").write_text("".join(map(nsp_line, rows)), encoding="utf-8")
    expected = nsp_accuracy(CharNgramModel.load(tmp_path / "lm.json").nsp_score, rows)
    code, out, err = nsp_eval(capsys, tmp_path / "nsp.tsv", tmp_path / "lm.json")
    assert (code, err) == (0, "")
    assert out == [json.dumps({**expected, "examples": len(rows)}, sort_keys=True)]


def test_score_nsp_file_pairs_each_score_with_its_label(tmp_path):
    pairs = make_corpus(20, seed=73)
    model = train_char_ngram([lyric_lm_text(render_text(p.lyric)) for p in pairs], 3, 0.1)
    rows = []
    build_dataset([p.lyric for p in pairs], BuilderConfig(seed=6), rows.append)
    (tmp_path / "nsp.tsv").write_text("".join(map(nsp_line, rows)), encoding="utf-8")
    assert model.score_nsp_file(tmp_path / "nsp.tsv") == [
        (model.nsp_score(row.context, row.candidate), row.label) for row in rows
    ]


# the row grammar `read_nsp_blocks` accepts: a context of [a-z' ] runs and end
# markers, and a candidate that is an optional "_" before [a-z']+ or the end
# marker; each context carries a run of candidates, as `build_dataset` writes them
grammar_text = st.text("abcdefghijklmnopqrstuvwxyz' ", min_size=1, max_size=5)
contexts = st.lists(st.one_of(grammar_text, st.just(EOS_TEXT)), min_size=1, max_size=4).map("".join)
candidates = st.tuples(
    st.sampled_from(["", "_"]), st.one_of(st.text("abcdefghijklmnopqrstuvwxyz'", min_size=1, max_size=4),
                                          st.just(EOS_TEXT))
).map("".join)
grammar_rows = st.lists(
    st.tuples(contexts, st.lists(st.tuples(candidates, st.integers(0, 1)), min_size=1, max_size=3)),
    min_size=1, max_size=6,
).map(lambda runs: [NspExample(context, c, label) for context, run in runs for c, label in run])


@settings(max_examples=100, deadline=None)
@given(rows=grammar_rows, order=st.integers(1, 5))
def test_every_row_in_the_grammar_scores_as_nsp_score_scores_it(tmp_path_factory, rows, order):
    path = tmp_path_factory.mktemp("nsp") / "rows.tsv"
    path.write_text("".join(map(nsp_line, rows)), encoding="utf-8")
    texts = [lyric_lm_text(render_text(p.lyric)) for p in make_corpus(10, seed=74)]
    # two models, so that neither answers from a cache the other filled
    by_rows, by_row = train_char_ngram(texts, order, 0.1), train_char_ngram(texts, order, 0.1)
    assert by_rows.score_nsp_file(path) == [(by_row.nsp_score(c, k), label) for c, k, label in rows]


def grouped_auc_sum(scored):
    """The rank sum of the positives as nsp_metrics once summed it: one slice
    and one generator per tie group."""
    ordered = sorted(scored, key=lambda item: item[0])
    rank_sum_pos = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            j += 1
        midrank = (i + 1 + j) / 2.0
        rank_sum_pos += midrank * sum(1 for _, label in ordered[i:j] if label == 1)
        i = j
    return rank_sum_pos


def grouped_metrics(scored, threshold):
    correct = sum(1 for s, label in scored if (s >= threshold) == (label == 1))
    n_pos = sum(1 for _, label in scored if label == 1)
    n_neg = len(scored) - n_pos
    accuracy = correct / len(scored)
    if n_pos == 0 or n_neg == 0:
        return {"accuracy": accuracy, "auc": float("nan")}
    auc = (grouped_auc_sum(scored) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return {"accuracy": accuracy, "auc": auc}


# few distinct scores, so that most pairs tie with others
scores = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0])
tie_heavy = st.lists(st.tuples(scores, st.integers(0, 1)), min_size=1, max_size=80)


@settings(max_examples=200, deadline=None)
@given(scored=tie_heavy, threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_nsp_metrics_equals_the_grouping_loop(scored, threshold):
    got, expected = nsp_metrics(scored, threshold), grouped_metrics(scored, threshold)
    assert json.dumps(got) == json.dumps(expected)  # NaN-aware and exact


def test_nsp_metrics_equals_the_grouping_loop_on_many_rows():
    rnd = random.Random(74)
    scored = [(rnd.randrange(50) / 49, rnd.randrange(2)) for _ in range(5000)]
    assert nsp_metrics(scored, 0.3) == grouped_metrics(scored, 0.3)


def test_nsp_example_equals_its_tuple():
    assert NspExample("i know", "_why", 1) == ("i know", "_why", 1)


def corpus_file(tmp_path, *notes_per_record):
    """A corpus of one-syllable-per-note records, one per notes list."""
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for notes in notes_per_record:
            record = {"syllables": ["la"] * len(notes), "word_initial": [True] * len(notes), "notes": notes}
            fh.write(json.dumps(record) + "\n")
    return path


@pytest.mark.parametrize(
    "first, second, message",
    [
        ([60, 1.0, 0.0], [True, 1.0, 0.0], "record 1: pitch must be an integer in [0, 127], got True"),
        ([1, 1.0, 0.0], [True, 1.0, 0.0], "record 1: pitch must be an integer in [0, 127], got True"),
        ([60, 1.0, 0.0], [60.0, 1.0, 0.0], "record 1: pitch must be an integer in [0, 127], got 60.0"),
        ([60, 1, 0.0], [60, True, 0.0], "record 1: duration must be finite and positive, got True"),
        ([60, 1.0, 0], [60, 1.0, False], "record 1: rest must be finite and non-negative, got False"),
        ([60, 1.0, 0.0], [[60], [1.0], [0.0]], "record 1: pitch must be an integer in [0, 127], got [60]"),
        ([60, 1.0, 0.0], [60, 1.0, "0"], "record 1: rest must be finite and non-negative, got '0'"),
        ([60, 1.0, 0.0], [60, 1.0, 10**400], "record 1: int too large to convert to float"),
    ],
)
def test_shared_notes_keep_every_message(tmp_path, first, second, message):
    path = corpus_file(tmp_path, [first, first], [first, second])
    with pytest.raises(ValueError) as info:
        load_aligned_corpus(path)
    assert str(info.value) == message.replace("record 1", f"{path}:2", 1)  # record 1 is line 2


def test_shared_notes_keep_their_types_and_signs(tmp_path):
    notes = [[60, 1, 0], [60, 1.0, 0.0], [60, 1.0, -0.0], [60, 1, 0], [60, 1.0, -0.0]]
    pairs = load_aligned_corpus(corpus_file(tmp_path, notes))
    loaded = pairs[0].melody.notes
    assert [[repr(n.pitch), repr(n.duration), repr(n.rest)] for n in loaded] == [
        [repr(value) for value in note] for note in notes
    ]
    assert loaded[0] is loaded[3] and loaded[2] is loaded[4] and loaded[1] is not loaded[2]
    write_aligned_corpus(pairs, tmp_path / "again.jsonl")
    assert json.loads((tmp_path / "again.jsonl").read_text())["notes"] == notes


def test_a_note_of_the_wrong_shape_keeps_its_message(tmp_path):
    path = corpus_file(tmp_path, [[60, 1.0, 0.0]], [[60, 1.0]])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: note 0 is not a JSON array of 3$"):
        load_aligned_corpus(path)


def test_shared_tokens_keep_every_message(tmp_path):
    path = tmp_path / "corpus.jsonl"
    records = [
        {"syllables": ["la", "la"], "word_initial": [True, False], "notes": [[60, 1.0, 0.0]] * 2},
        {"syllables": ["la", ["la"]], "word_initial": [True, False], "notes": [[60, 1.0, 0.0]] * 2},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: syllable 1 is not a JSON string$"):
        load_aligned_corpus(path)

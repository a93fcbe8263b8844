import itertools
import json
import math
import random
import tracemalloc
from collections import Counter, defaultdict

import pytest

from syllabeam.corpus import (
    AlignedPair,
    BOS_TEXT,
    EOS_TEXT,
    LyricSequence,
    MelodyNote,
    MelodySequence,
    SyllableToken,
    build_vocabulary,
)
from syllabeam.generator import (
    DURATION_LONG,
    DURATION_MEDIUM,
    DURATION_SHORT,
    MelodyConditionedNgram,
    NoteBucket,
    bucket_note,
    train_generator,
    train_records,
    training_record,
    write_trained,
)

from conftest import NaiveGenerator, make_corpus


def toks(line):
    parts = line.split()
    return tuple(
        SyllableToken(p.lstrip("_"), i == 0 or p.startswith("_")) for i, p in enumerate(parts)
    )


def simple_pair(line, pitches):
    tokens = toks(line)
    notes = tuple(MelodyNote(p, 1.0, 0.0) for p in pitches)
    return AlignedPair(MelodySequence(notes), LyricSequence(tokens))


def distribution(model, history, note):
    """The distribution that serves a (history, note) query, read one entry
    at a time through `prob_by_key`."""
    key, bucket = model.history_key(history), model.bucket(note)
    return {text: model.prob_by_key(key, bucket, text) for text in model.vocab.emittable()}


class TestBucketNote:
    def test_medium_no_rest(self):
        assert bucket_note(MelodyNote(60, 1.0, 0.0)) == NoteBucket(0, 5, DURATION_MEDIUM, False)

    def test_short_with_rest(self):
        assert bucket_note(MelodyNote(61, 0.5, 0.5)) == NoteBucket(1, 5, DURATION_SHORT, True)

    def test_pitch_zero(self):
        bucket = bucket_note(MelodyNote(0, 2.0, 0.0))
        assert (bucket.pitch_class, bucket.register) == (0, 0)
        assert bucket.duration_class == DURATION_LONG


class TestTraining:
    def test_deterministic_corpus_k0(self):
        pair = simple_pair("he llo", [60, 62])
        vocab = build_vocabulary([pair.lyric])
        model = train_generator([pair], vocab, history=2, k=0.0)
        dist = distribution(model, pair.lyric.tokens[:1], pair.melody.notes[1])
        assert dist["llo"] == 1.0
        assert sum(dist.values()) == 1.0

    def test_add_k_by_hand(self):
        # 3 emittable entries (eos, he, llo); one observation:
        # p(observed) = (1 + k) / (1 + 3k)
        pair = simple_pair("he llo", [60, 62])
        vocab = build_vocabulary([pair.lyric])
        k = 0.5
        model = train_generator([pair], vocab, history=2, k=k)
        dist = distribution(model, pair.lyric.tokens[:1], pair.melody.notes[1])
        assert math.isclose(dist["llo"], (1 + k) / (1 + 3 * k), abs_tol=1e-12)
        assert math.isclose(dist[EOS_TEXT], k / (1 + 3 * k), abs_tol=1e-12)

    def test_eos_counted_at_end(self):
        pair = simple_pair("he llo", [60, 62])
        vocab = build_vocabulary([pair.lyric])
        model = train_generator([pair], vocab, history=2, k=0.0)
        dist = distribution(model, pair.lyric.tokens, None)
        assert dist[EOS_TEXT] == 1.0

    def test_out_of_vocabulary(self):
        """The first unknown syllable in corpus order is named, though the
        other one sorts first and, under this process's string hashing,
        comes first out of a set of the two. Both names are searched for: a
        fixed first name takes a set's first slot under one hash seed in 8."""
        other = build_vocabulary([LyricSequence(toks("la la"))])
        letters = "abcdefghijklmnopqrstuvwxyz"
        pairs = ((f"z{a}", f"a{b}") for a in letters for b in letters)
        first, later = next((first, later) for first, later in pairs if next(iter({first, later})) == later)
        corpus = [simple_pair(f"la {first}", [60, 62]), simple_pair(f"{later} la", [60, 62])]
        with pytest.raises(ValueError, match=f"^syllable '{first}' not in vocabulary$"):
            train_generator(corpus, other, history=2, k=0.0)

    def test_empty_corpus(self):
        vocab = build_vocabulary([LyricSequence(toks("la"))])
        with pytest.raises(ValueError):
            train_generator([], vocab)

    def test_history_validation(self):
        vocab = build_vocabulary([LyricSequence(toks("la"))])
        with pytest.raises(ValueError):
            MelodyConditionedNgram(vocab, history=0)


class TestNextDistribution:
    """The distribution that serves a query, as decode reads it."""

    def test_sums_to_one_on_random_queries(self):
        corpus = make_corpus(30, seed=51)
        vocab = build_vocabulary([p.lyric for p in corpus])
        model = train_generator(corpus, vocab, history=2, k=0.1)
        rnd = random.Random(3)
        texts = vocab.syllable_texts()
        for _ in range(100):
            history = [
                SyllableToken(rnd.choice(texts), True) for _ in range(rnd.randint(0, 4))
            ]
            note = MelodyNote(rnd.randint(0, 127), rnd.choice([0.5, 1.0, 2.0]), 0.0)
            # wider than the emittable entries: decode's read of every one
            ranked, probs, _ = model.top_by_key(model.history_key(history), model.bucket(note), len(vocab))
            assert math.isclose(sum(probs), 1.0, abs_tol=1e-9)
            assert sorted(ranked) == sorted(vocab.emittable())

    def test_unseen_history_with_smoothing_strictly_positive(self):
        corpus = make_corpus(5, seed=52)
        vocab = build_vocabulary([p.lyric for p in corpus])
        model = train_generator(corpus, vocab, history=2, k=0.05)
        history = [SyllableToken("night", True), SyllableToken("night", True)]
        dist = distribution(model, history, MelodyNote(1, 0.5, 0.5))
        assert all(p > 0.0 for p in dist.values())

    def test_backoff_reaches_unigram(self):
        pair = simple_pair("he llo _wo rld", [60, 62, 64, 65])
        vocab = build_vocabulary([pair.lyric])
        model = train_generator([pair], vocab, history=2, k=0.0)
        # history and bucket both unseen in training: unigram counts serve
        history = [SyllableToken("rld", True), SyllableToken("he", True)]
        dist = distribution(model, history, MelodyNote(1, 0.5, 0.5))
        # 5 events total: he, llo, wo, rld, eos
        assert math.isclose(dist["he"], 1 / 5, abs_tol=1e-12)
        assert math.isclose(dist[EOS_TEXT], 1 / 5, abs_tol=1e-12)

    def test_matches_brute_force_frequencies(self):
        corpus = make_corpus(40, seed=53, min_syllables=4, max_syllables=10)
        vocab = build_vocabulary([p.lyric for p in corpus])
        h = 2
        model = train_generator(corpus, vocab, history=h, k=0.0)

        # independent counter over (padded history, bucket) -> next syllable
        reference = defaultdict(Counter)
        for pair in corpus:
            tokens = pair.lyric.syllables()
            for i, tok in enumerate(tokens):
                texts = [t.text for t in tokens[:i]]
                key = tuple([BOS_TEXT] * max(0, h - i) + texts[-h:])
                reference[(key, bucket_note(pair.melody.notes[i]))][tok.text] += 1

        checked = 0
        for (hist_key, bucket), counter in reference.items():
            total = sum(counter.values())
            history = [SyllableToken(t, True) for t in hist_key if t != BOS_TEXT]
            note = None
            for pair in corpus:  # find a note landing in this bucket
                for n in pair.melody.notes:
                    if bucket_note(n) == bucket:
                        note = n
                        break
                if note:
                    break
            dist = distribution(model, history, note)
            for text, count in counter.items():
                assert math.isclose(dist[text], count / total, abs_tol=1e-12)
            checked += 1
        assert checked > 50

    def test_determinism(self):
        corpus = make_corpus(10, seed=54)
        vocab = build_vocabulary([p.lyric for p in corpus])
        a = train_generator(corpus, vocab, history=2, k=0.1)
        b = train_generator(corpus, vocab, history=2, k=0.1)
        history = corpus[0].lyric.tokens[:2]
        note = corpus[0].melody.notes[2]
        assert distribution(a, history, note) == distribution(b, history, note)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus(15, seed=55)
        vocab = build_vocabulary([p.lyric for p in corpus])
        model = train_generator(corpus, vocab, history=2, k=0.1)
        path = tmp_path / "gen.json"
        model.save(path)
        loaded = MelodyConditionedNgram.load(path)
        assert loaded.vocab.syllable_texts() == model.vocab.syllable_texts()
        rnd = random.Random(77)
        texts = vocab.syllable_texts()
        for _ in range(30):
            history = [SyllableToken(rnd.choice(texts), True) for _ in range(rnd.randint(0, 3))]
            note = MelodyNote(rnd.randint(30, 90), rnd.choice([0.5, 1.0, 2.0]), rnd.choice([0.0, 1.0]))
            assert distribution(loaded, history, note) == distribution(model, history, note)
        history = corpus[0].lyric.tokens
        assert distribution(loaded, history, None) == distribution(model, history, None)

    def test_save_is_deterministic(self, tmp_path):
        corpus = make_corpus(5, seed=56)
        vocab = build_vocabulary([p.lyric for p in corpus])
        model = train_generator(corpus, vocab, history=2, k=0.1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def wide_corpus(seed):
        """Random syllables over the whole pitch range, so bucket integers have
        one and two digits ("10" sorts before "9" as JSON text)."""
        rnd = random.Random(seed)
        pool = [o + v + c for o in ("", "b", "st") for v in "aeiou" for c in ("", "n", "'s")]
        pairs = []
        for _ in range(150):
            n = rnd.randint(1, 8)
            tokens = tuple(
                SyllableToken(rnd.choice(pool), i == 0 or rnd.random() < 0.4) for i in range(n)
            )
            notes = tuple(
                MelodyNote(rnd.randint(0, 127), rnd.choice([0.5, 1.0, 2.0]), rnd.choice([0.0, 0.5]))
                for _ in range(n)
            )
            pairs.append(AlignedPair(MelodySequence(notes), LyricSequence(tokens)))
        return pairs

    @staticmethod
    def reference_payload(model):
        """The model's fields as the stdlib encoder takes them: the header, and
        rows in the order of the JSON text of [history, bucket]."""
        rows = [[list(hist), bucket, counts] for (hist, bucket), counts in model._by_hist_bucket.items()]
        return {
            "format": "syllabeam-generator",
            "version": 2,
            "bucketing": 1,
            "history": model.history,
            "k": model.k,
            "vocabulary": list(model.vocab.syllable_texts()),
            "hist_bucket": sorted(rows, key=lambda row: json.dumps(row[:2])),
        }

    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large", "many"])
    def test_rows_in_json_text_order(self, tmp_path, vocabulary, history):
        """`save` writes each row's JSON text itself; the file is the one the
        stdlib encoder writes of the model's fields with sorted keys."""
        model = TestSharing.model(tmp_path, TestSharing.corpus(vocabulary), history, "trained")
        path = tmp_path / "gen.json"
        model.save(path)
        payload = self.reference_payload(model)
        assert path.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True) + "\n"
        rows = payload["hist_bucket"]
        assert {len(str(row[1][0])) for row in rows if row[1]} == {1, 2}
        # tables of several entries, listed out of key order as counted, end
        # tokens, the null bucket, and apostrophes where the corpus has them
        assert any(len(counts) > 1 and list(counts) != sorted(counts) for _, _, counts in rows)
        assert any(EOS_TEXT in counts for _, _, counts in rows)
        assert any(bucket is None for _, bucket, _ in rows)
        assert (vocabulary == "small") != any("'" in text for text in payload["vocabulary"])

    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large"])
    def test_saving_a_loaded_file_writes_it_again(self, tmp_path, vocabulary, history):
        corpus = make_corpus(60, seed=57) if vocabulary == "small" else self.wide_corpus(58)
        vocab = build_vocabulary([p.lyric for p in corpus])
        model = train_generator(corpus, vocab, history=history, k=0.1)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save(first)
        loaded = MelodyConditionedNgram.load(first)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
        # the derived tables of the loaded model are the trained ones
        for name in ("_by_hist_bucket", "_by_hist", "_by_bucket", "_unigram"):
            assert getattr(loaded, name) == getattr(model, name)

    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large"])
    def test_write_trained_saves_the_trained_model(self, tmp_path, vocabulary, history):
        """train-generator's writer, which sums no backoff table, saves the
        bytes and returns the stats of the model `train_records` makes."""
        corpus = make_corpus(60, seed=57) if vocabulary == "small" else self.wide_corpus(58)
        vocab = build_vocabulary([p.lyric for p in corpus])
        records = list(map(training_record(), corpus))
        model = train_records(records, vocab, history, 0.1)
        trained, written = tmp_path / "trained.json", tmp_path / "written.json"
        model.save(trained)
        assert write_trained(written, records, vocab, history, 0.1) == model.stats()
        assert written.read_bytes() == trained.read_bytes()

    @pytest.mark.parametrize("vocabulary", ["small", "large"])
    def test_equal_one_entry_tables_load_as_one_dict(self, tmp_path, vocabulary):
        """Within one load, and not across two."""
        corpus = make_corpus(60, seed=57) if vocabulary == "small" else self.wide_corpus(58)
        path = tmp_path / "gen.json"
        train_generator(corpus, build_vocabulary([p.lyric for p in corpus])).save(path)
        first, second = MelodyConditionedNgram.load(path), MelodyConditionedNgram.load(path)
        ones = [table for table in first._by_hist_bucket.values() if len(table) == 1]
        assert len({id(table) for table in ones}) == len({tuple(table.items()) for table in ones}) < len(ones)
        ids = [{id(table) for table in model._by_hist_bucket.values()} for model in (first, second)]
        assert not ids[0] & ids[1]

    def test_every_note_bucket_loads(self, tmp_path):
        """A file may hold each of the 768 buckets a MIDI note has, those of
        pitches 0 and 127 included, and loads each as trained."""
        notes = tuple(MelodyNote(p, d, r) for p in range(128) for d in (0.5, 1.0, 2.0) for r in (0.0, 0.5))
        tokens = tuple(SyllableToken("la", i == 0) for i in range(len(notes)))
        corpus = [AlignedPair(MelodySequence(notes), LyricSequence(tokens))]
        model = train_generator(corpus, build_vocabulary([corpus[0].lyric]), history=1)
        assert len(model._by_bucket) == 768 + 1  # and null, past the final note
        model.save(tmp_path / "gen.json")
        assert MelodyConditionedNgram.load(tmp_path / "gen.json")._by_hist_bucket == model._by_hist_bucket

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            MelodyConditionedNgram.load(path)


class TestLoadRejectsCorruptCounts:
    @pytest.fixture
    def saved(self, tmp_path):
        corpus = make_corpus(6, seed=57)
        vocab = build_vocabulary([p.lyric for p in corpus])
        path = tmp_path / "gen.json"
        train_generator(corpus, vocab, history=2, k=0.1).save(path)
        return path

    @staticmethod
    def corrupt(path, edit):
        """Edit the counts of the file's first (history, bucket) row; returns
        the row's history key and bucket."""
        payload = json.loads(path.read_text())
        hist, bucket, counts = payload["hist_bucket"][0]
        edit(counts)
        path.write_text(json.dumps(payload))
        return tuple(hist), None if bucket is None else NoteBucket(*bucket)

    @pytest.mark.parametrize("table", ["hist_bucket"])
    @pytest.mark.parametrize("key", ["zzz", BOS_TEXT])
    def test_key_outside_emittable_vocabulary(self, saved, table, key):
        self.corrupt(saved, lambda counts: counts.__setitem__(key, 1))
        with pytest.raises(ValueError, match="not an emittable vocabulary entry"):
            MelodyConditionedNgram.load(saved)

    @pytest.mark.parametrize("table", ["hist_bucket"])
    @pytest.mark.parametrize("count", [1.7, 2.0, True, False, -1, "3", None])
    def test_count_not_a_non_negative_int(self, saved, table, count):
        def edit(counts):
            counts[next(iter(counts))] = count

        self.corrupt(saved, edit)
        with pytest.raises(ValueError, match="is not a non-negative integer"):
            MelodyConditionedNgram.load(saved)

    def test_the_first_bad_row_in_file_order_is_named(self, saved):
        """Rows are checked as they are summed, in file order: a bad count in
        the first row is named ahead of a bad history and a bad bucket after it."""
        payload = json.loads(saved.read_text())
        rows = payload["hist_bucket"]
        rows[1][0] = ["zzz", "zzz"]
        rows[-1][1] = [12, 5, "short", False]
        saved.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"gen\.json: history \['zzz', 'zzz'\] is not 2 vocabulary entries$"):
            MelodyConditionedNgram.load(saved)
        rows[0][2] = {EOS_TEXT: -1}
        saved.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"gen\.json: count -1 for '<eos>' is not a non-negative integer$"):
            MelodyConditionedNgram.load(saved)

    def test_zero_count_accepted(self, saved):
        served = {}

        def edit(counts):
            counts[EOS_TEXT] = 0
            served.update(counts)

        key, bucket = self.corrupt(saved, edit)
        model = MelodyConditionedNgram.load(saved)
        texts, probs, _ = model.top_by_key(key, bucket, len(model.vocab.emittable()))
        assert math.isclose(sum(probs), 1.0)
        denom = sum(served.values()) + model.k * len(texts)
        assert model.prob_by_key(key, bucket, EOS_TEXT) == model.k / denom


class TestSharing:
    """The model keeps one object per distinct row, string and sum. Nothing
    changes a model once it is trained or loaded, so sharing is safe."""

    @classmethod
    def corpus(cls, vocabulary):
        if vocabulary == "small":
            return make_corpus(60, seed=57)
        return TestPersistence.wide_corpus(58) if vocabulary == "large" else cls.many_syllables(59)

    @staticmethod
    def many_syllables(seed):
        """Hundreds of syllables over a few octaves: most histories have one
        row, as in a large-vocabulary corpus."""
        rnd = random.Random(seed)
        pool = [o + v + c for o in ("", "b", "d", "k", "l", "m", "r", "s", "t", "st")
                for v in ("a", "e", "i", "o", "u", "ai", "ou") for c in ("", "n", "s", "t", "'s", "ng")]
        pairs = []
        for _ in range(400):
            n = rnd.randint(2, 10)
            tokens = tuple(SyllableToken(rnd.choice(pool), i == 0 or rnd.random() < 0.4) for i in range(n))
            notes = tuple(
                MelodyNote(rnd.randint(55, 76), rnd.choice([0.5, 1.0, 2.0]), rnd.choice([0.0, 0.5]))
                for _ in range(n)
            )
            pairs.append(AlignedPair(MelodySequence(notes), LyricSequence(tokens)))
        return pairs

    @staticmethod
    def model(tmp_path, corpus, history, source):
        vocab = build_vocabulary([p.lyric for p in corpus])
        model = train_generator(corpus, vocab, history=history, k=0.1)
        if source == "trained":
            return model
        model.save(tmp_path / "gen.json")
        return MelodyConditionedNgram.load(tmp_path / "gen.json")

    @staticmethod
    def peak(call) -> int:
        """The peak traced memory of `call()`, in bytes."""
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("source", ["trained", "loaded"])
    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large", "many"])
    def test_a_history_of_one_row_keeps_that_row(self, tmp_path, vocabulary, history, source):
        """At history 1 the small and large corpora have no history of one
        row; the many-syllable one has such histories at every history."""
        corpus = self.corpus(vocabulary)
        model = self.model(tmp_path, corpus, history, source)
        rows = defaultdict(list)
        for (hist, _), counts in model._by_hist_bucket.items():
            rows[hist].append(counts)
        assert any(len(of_hist) > 1 for of_hist in rows.values())
        for hist, of_hist in rows.items():
            table = model._by_hist[hist]
            if len(of_hist) == 1:
                assert table is of_hist[0]
            else:
                assert all(table is not row for row in of_hist)
        # summing left every row as counted, and each history table is the sum
        naive = NaiveGenerator(corpus, model.vocab, history, model.k)
        assert model._by_hist_bucket == naive.tables["hist_bucket"]
        assert model._by_hist == naive.tables["hist"]
        assert model._by_bucket == naive.tables["bucket"]

    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large", "many"])
    def test_rows_in_any_order_load_the_trained_tables(self, tmp_path, vocabulary, history):
        """`load` sums each row into the backoff tables as it reads it, so a
        file whose rows are shuffled, the rows of one history apart, loads the
        trained tables, and a history of one row still keeps that row."""
        corpus = self.corpus(vocabulary)
        model = self.model(tmp_path, corpus, history, "trained")
        path = tmp_path / "gen.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        random.Random(history).shuffle(payload["hist_bucket"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = MelodyConditionedNgram.load(path)
        for name in ("_by_hist_bucket", "_by_hist", "_by_bucket", "_unigram"):
            assert getattr(loaded, name) == getattr(model, name)
        rows = defaultdict(list)
        for (hist, _), counts in loaded._by_hist_bucket.items():
            rows[hist].append(counts)
        assert any(len(of_hist) == 1 for of_hist in rows.values()) or vocabulary != "many"
        for hist, of_hist in rows.items():
            assert (loaded._by_hist[hist] is of_hist[0]) == (len(of_hist) == 1)

    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large"])
    def test_loaded_histories_hold_the_vocabulary_strings(self, tmp_path, vocabulary, history):
        """Each loaded history is one tuple of the vocabulary's own strings,
        shared by all its rows and its (history) table key."""
        model = self.model(tmp_path, self.corpus(vocabulary), history, "loaded")
        own = {text: text for text in (BOS_TEXT, *model.vocab.emittable())}
        rows = (hist for hist, _ in model._by_hist_bucket)
        assert len({id(hist) for hist in itertools.chain(rows, model._by_hist)}) == len(model._by_hist)
        for hist in model._by_hist:
            assert all(text is own[text] for text in hist)

    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large", "many"])
    def test_load_peaks_no_higher_than_parsing(self, tmp_path, vocabulary, history):
        """The parsed rows are released as the model is built, so loading
        peaks where parsing the file alone does. Buckets are checked against
        one table built at import, so the large corpus's hundreds of buckets
        cost a load nothing to hold."""
        path = tmp_path / "gen.json"
        self.model(tmp_path, self.corpus(vocabulary), history, "trained").save(path)

        def parse():
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)

        assert self.peak(lambda: MelodyConditionedNgram.load(path)) <= 1.05 * self.peak(parse)

    @pytest.mark.parametrize("history", [1, 2, 3])
    @pytest.mark.parametrize("vocabulary", ["small", "large", "many"])
    def test_save_peaks_no_higher_than_encoding(self, tmp_path, vocabulary, history):
        """`save` holds one text per row and writes them one at a time, so it
        peaks no higher than the stdlib encoder of the same payload, which
        builds the whole file's text."""
        model = self.model(tmp_path, self.corpus(vocabulary), history, "trained")
        payload = TestPersistence.reference_payload(model)
        assert self.peak(lambda: model.save(tmp_path / "gen.json")) <= self.peak(
            lambda: json.dumps(payload, sort_keys=True)
        )

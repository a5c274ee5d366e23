"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or check captured output). Tolerances are fixed
here, not tuned at runtime."""

import itertools
import random
import time
from contextlib import contextmanager

from scipy import stats

from lexaug.analysis import LangRow, ols_fit, regress_delta_chrf
from lexaug.augment import Task, codeswitch, glowup_prompt, token_pair_examples
from lexaug.cli import main
from lexaug.corpus import Record, tokenize
from lexaug.lexicon import LexEntry, Lexicon
from lexaug.metrics import (
    EvalRow,
    Resourcedness,
    chrf_sums,
    copy_similarity,
    detect_repetition,
    diagnose_corpus,
    f_score,
    token_hit_rate,
)
from lexaug.mixture import build_schedule, interleave
from lexaug.sampling import SelectionParams, derive_rng

from conftest import write_jsonl
from reference_chrf import reference_corpus_chrf, reference_sentence_chrf


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:02d} PASS - {description}")


# -- 1. chrf oracle equivalence ------------------------------------------

_POOLS = [
    ["the", "cat", "sat", "on", "a", "mat", "kitten", "puma", "hot", "chip"],
    ["el", "gato", "se", "sento", "perro", "ladra", "casa", "agua"],
    ["кот", "сидел", "на", "ковре", "собака", "дом", "вода"],
    ["बिल्ली", "कुत्ता", "घर", "पानी", "नमस्ते"],
    ["猫", "犬", "家", "水", "こんにちは"],
    ["قط", "كلب", "بيت", "ماء"],
]


def _mixed_language_pairs(n_pairs=200, seed=0):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        pool = rng.choice(_POOLS)
        ref = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 14)))
        style = rng.random()
        if style < 0.15:
            hyp = ref  # perfect output
        elif style < 0.3:
            hyp = ""  # null output
        elif style < 0.5:
            hyp = " ".join(rng.choice(rng.choice(_POOLS)) for _ in range(rng.randint(0, 14)))
        else:
            words = ref.split()
            rng.shuffle(words)
            hyp = " ".join(words[: max(1, len(words) - rng.randint(0, 3))])
        pairs.append((hyp, ref))
    return pairs


def test_criterion_1_chrf_matches_reference_implementation():
    with criterion(1, "sentence and corpus chrf match the reference scorer within 1e-4"):
        started = time.perf_counter()
        pairs = _mixed_language_pairs()
        assert len(pairs) == 200
        count, sums, scores = chrf_sums(pairs, True)
        assert count == len(scores) == 200
        for (hyp, ref), score in zip(pairs, scores):
            assert abs(score - reference_sentence_chrf(hyp, ref)) < 1e-4
        ours = f_score(sums)
        oracle = reference_corpus_chrf([h for h, _ in pairs], [r for _, r in pairs])
        assert abs(ours - oracle) < 1e-4
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


# -- 2. token hit-rate example -------------------------------------------


def test_criterion_2_hit_rate_fixture():
    with criterion(2, "kitten/puma hit-rate fixture returns exactly 0.5"):
        rows = [
            EvalRow(hypothesis="kitten lie on floor", reference="The kitten lies"),
            EvalRow(hypothesis="Crocodile charge they phone", reference="A Puma eats hot chip"),
        ]
        result = token_hit_rate(rows, {"kitten", "puma"})
        assert result.rate == 0.5


# -- 3. swap fraction ------------------------------------------------------


def test_criterion_3_swap_fraction():
    with criterion(3, "mean swap fraction 0.4 +/- 0.01; clamped case always swaps"):
        started = time.perf_counter()
        words = [f"w{i}" for i in range(20)]
        lexicon = Lexicon([("panlex", (LexEntry(w, f"x{w}", "en", "es", "Latn") for w in words))])
        sentence = tokenize(" ".join(words))
        params = SelectionParams(p_tr=0.4)
        trials = 10_000
        swapped_total = 0
        for trial in range(trials):
            _, swapped = codeswitch(sentence, "en", lexicon, params, derive_rng(101, trial))
            swapped_total += len(swapped)
        mean_fraction = swapped_total / (trials * sentence.n)
        assert abs(mean_fraction - 0.4) <= 0.01, f"mean fraction {mean_fraction:.4f}"

        # k=2 translatable of n=10: adjusted probability clamps to 1.
        sparse_words = ["w0", "w1"] + [f"z{i}" for i in range(8)]
        sparse = tokenize(" ".join(sparse_words))
        for trial in range(500):
            _, swapped = codeswitch(sparse, "en", lexicon, params, derive_rng(102, trial))
            assert swapped == frozenset({0, 1})
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"


# -- 4. hint-count uniformity ---------------------------------------------


def test_criterion_4_hint_count_uniformity():
    with criterion(4, "hint counts uniform on {0..3}: +/- 0.01 and chi-square p > 0.01"):
        lexicon = Lexicon(
            [("panlex", [
                LexEntry("cat", "gato", "en", "es", "Latn"),
                LexEntry("dog", "perro", "en", "es", "Latn"),
                LexEntry("kitten", "gatito", "en", "es", "Latn"),
            ])]
        )
        sentence = tokenize("cat dog kitten")
        trials = 10_000
        counts = [0, 0, 0, 0]
        for trial in range(trials):
            _, hinted = glowup_prompt(sentence, "en", lexicon, derive_rng(77, trial))
            counts[len(hinted)] += 1
        for count in counts:
            assert abs(count / trials - 0.25) <= 0.01
        p_value = stats.chisquare(counts, f_exp=[trials / 4] * 4).pvalue
        assert p_value > 0.01, f"chi-square p={p_value:.4f}"


# -- 5. mixture schedule arithmetic ---------------------------------------


def test_criterion_5_mixture_schedules_and_interleave():
    with criterion(5, "schedules exact; 1e6 interleave draws within +/- 0.005"):
        assert build_schedule().weights == {Task.TRANSLATION: 0.40, Task.MASS: 0.60}
        assert build_schedule(mono_aug="codeswitch").weights == {
            Task.TRANSLATION: 0.40,
            Task.MASS: 0.30,
            Task.CODESWITCH_MONO: 0.30,
        }
        full = build_schedule(mono_aug="codeswitch", token_pairs=True)
        assert full.weights == {
            Task.TOKEN_PAIR: 0.05,
            Task.TRANSLATION: 0.38,
            Task.MASS: 0.285,
            Task.CODESWITCH_MONO: 0.285,
        }
        streams = {
            Task.TRANSLATION: ["t"],
            Task.MASS: ["m"],
            Task.CODESWITCH_MONO: ["c"],
            Task.TOKEN_PAIR: ["p"],
        }
        draws = 1_000_000
        tally = {"t": 0, "m": 0, "c": 0, "p": 0}
        for item in itertools.islice(interleave(streams, full, seed=55), draws):
            tally[item] += 1
        expected = {"t": 0.38, "m": 0.285, "c": 0.285, "p": 0.05}
        for label, target in expected.items():
            share = tally[label] / draws
            assert abs(share - target) <= 0.005, f"{label}: {share:.4f} vs {target}"


# -- 6. determinism under parallelism --------------------------------------


def test_criterion_6_jobs_do_not_change_bytes(tmp_path):
    with criterion(6, "augment output is byte-identical for --jobs 1 and --jobs 8"):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl",
            [
                {"lang": "en", "script": "Latn", "text": f"the cat saw dog number {i} today"}
                for i in range(1000)
            ],
        )
        lexicon_path = tmp_path / "lex.tsv"
        lexicon_path.write_text(
            "en\tes\tLatn\tcat\tgato\nen\tfr\tLatn\tcat\tchat\n"
            "en\tes\tLatn\tdog\tperro\nen\tes\tLatn\tnumber\tnumero\n",
            encoding="utf-8",
        )
        outputs = {}
        for jobs in ("1", "8"):
            out = tmp_path / f"out{jobs}.jsonl"
            code = main(
                [
                    "augment",
                    "--task", "codeswitch-mono",
                    "--corpus", corpus,
                    "--lexicon", str(lexicon_path),
                    "--seed", "42",
                    "--jobs", jobs,
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs[jobs] = out.read_bytes()
        assert outputs["1"] == outputs["8"]
        assert len(outputs["1"]) > 0


# -- 7. error detectors -----------------------------------------------------


def test_criterion_7_error_detectors():
    with criterion(7, "hand-built corpus yields exactly 20%/10%/10%; boundaries clean"):
        def row(hyp, ref, source):
            return EvalRow(source=source, hypothesis=hyp, reference=ref)

        rows = [
            row("The quick brown fox", "r1", "The quick brown fox"),  # copy
            row("jihgfedcba", "r2", "abcdefghij"),  # copy (permuted chars)
            row("??", "r3", "Das ist ein Test"),  # null
            row("la la la la", "r4", "Ein anderer Satz"),  # repetition
            row("a" * 17, "r5", "a" * 20),  # similarity exactly 0.85
            row("no no no", "r6", "Noch ein Satz hier"),  # ratio exactly 3
            row("une phrase correcte", "r7", "A correct sentence"),
            row("otra frase normal", "r8", "Another normal sentence"),
            row("ganz anderes zeug", "r9", "Entirely different stuff"),
            row("vierte saubere zeile", "r10", "Fourth clean line"),
        ]
        report = diagnose_corpus(rows)
        assert report.copy_pct == 20.0
        assert report.null_pct == 10.0
        assert report.repetition_pct == 10.0
        # Boundary values sit exactly on the thresholds and stay clean.
        assert copy_similarity("a" * 20, "a" * 17) == 0.85
        assert not detect_repetition("no no no")


# -- 8. token-pair rendering ------------------------------------------------


def test_criterion_8_token_pair_rendering():
    with criterion(8, "token pair renders '<2translation> <2es> <2Latn> cat' -> 'gato'"):
        lexicon = Lexicon([("panlex", [LexEntry("cat", "gato", "en", "es", "Latn")])])
        (example,) = list(token_pair_examples(lexicon))
        assert example.source_text == "<2translation> <2es> <2Latn> cat"
        assert example.target_text == "gato"


# -- 9. OLS recovery ---------------------------------------------------------


def test_criterion_9_ols_recovery():
    with criterion(9, "planted coefficients recovered within 1e-6; URL-only filter holds"):
        import numpy as np

        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1000, size=(200, 3))
        planted = np.array([0.3, 1.2, -0.05])
        y = X @ planted + 2.0
        fit = ols_fit(X, y)
        assert np.allclose(fit.beta, planted, atol=1e-6)
        assert abs(fit.intercept - 2.0) < 1e-6

        url_rows = [
            LangRow(
                f"u{i}",
                0.001 * x[0] + 0.003 * x[1] + 1e-6 * x[2] + 0.25,
                int(x[0]),
                int(x[1]),
                int(x[2]),
                Resourcedness.URL,
            )
            for i, x in enumerate(rng.uniform(0, 40_000, size=(50, 3)))
        ]
        # Delta values are recomputed from the truncated integer predictors so
        # the planted relationship stays exact.
        url_rows = [
            LangRow(
                r.lang,
                0.001 * r.n_panlex + 0.003 * r.n_gatitos + 1e-6 * r.n_mono_sentences + 0.25,
                r.n_panlex,
                r.n_gatitos,
                r.n_mono_sentences,
                r.resourcedness,
            )
            for r in url_rows
        ]
        spoilers = [
            LangRow(f"h{i}", -500.0, 10, 10, 10, Resourcedness.HRL) for i in range(20)
        ]
        report = regress_delta_chrf(url_rows + spoilers)
        assert report.n_rows == 50
        assert abs(report.coefficients["n_panlex"] - 0.001) < 1e-6
        assert abs(report.coefficients["n_gatitos"] - 0.003) < 1e-6
        assert abs(report.coefficients["n_mono_sentences"] - 1e-6) < 1e-6


# -- 10. throughput ----------------------------------------------------------


def test_criterion_10_throughput_and_streaming():
    with criterion(10, "codeswitch-mono sustains >= 1e5 sentences/minute; streaming is lazy"):
        from lexaug.augment import codeswitch_mono

        vocabulary = [f"word{i}" for i in range(100_000)]
        lexicon = Lexicon([("panlex", (
            LexEntry(w, f"tr{i}", "en", "xx", "Latn") for i, w in enumerate(vocabulary)
        ))])
        assert len(lexicon) == 100_000

        params = SelectionParams(p_tr=0.4)
        n_sentences = 20_000
        texts = [
            " ".join(vocabulary[(17 * i + j) % 100_000] for j in range(20))
            for i in range(n_sentences)
        ]
        records = [Record(id=i, lang="en", script="Latn", text=t) for i, t in enumerate(texts)]
        started = time.perf_counter()
        produced = 0
        for record in records:
            example = codeswitch_mono(record, lexicon, params, derive_rng(5, record.id))
            produced += 1
            assert example.target_text
        elapsed = time.perf_counter() - started
        per_minute = produced / elapsed * 60.0
        assert per_minute >= 100_000, f"rate {per_minute:,.0f} sentences/minute"

        # Memory behaviour: the pipeline is a pure per-record stream; pulling
        # a prefix from an effectively unbounded record source terminates
        # without materializing it.
        unbounded = (
            Record(id=i, lang="en", script="Latn", text="word1 word2 word3")
            for i in itertools.count()
        )
        stream = (
            codeswitch_mono(r, lexicon, params, derive_rng(6, r.id)) for r in unbounded
        )
        first = list(itertools.islice(stream, 100))
        assert len(first) == 100

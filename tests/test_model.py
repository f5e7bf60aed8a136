import struct

import numpy as np
import pytest

from setcoh import model
from setcoh.datagen import Statement, StatementSet
from setcoh.model import (
    CLS_INDEX,
    CLS_TOKEN,
    CorruptFileError,
    MAX_SEED,
    ModelParams,
    UNK_INDEX,
    UNK_TOKEN,
    VersionMismatchError,
    binary_logits,
    build_vocabulary,
    energy,
    grad_energy,
    grad_logits,
    load_params,
    save_params,
    serialize_set,
    softmax,
    statement_text,
    tokenize,
)


@pytest.fixture()
def qa_pair_set():
    return StatementSet(
        id="t", provenance="C",
        statements=[
            Statement(kind="qa", question="what color is desk?", answer="brown"),
            Statement(kind="qa", question="is desk brown?", answer="yes"),
        ],
    )


@pytest.fixture()
def vocab(qa_pair_set):
    return build_vocabulary([qa_pair_set])


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Is desk brown? The answer is yes.") == \
        ["is", "desk", "brown", "?", "the", "answer", "is", "yes", "."]


def test_statement_text_joins_qa_pairs(qa_pair_set):
    assert statement_text(qa_pair_set.statements[0]) == "what color is desk? The answer is brown."


def test_vocabulary_tokenizes_each_distinct_text_once(qa_corpus, snli_corpus, monkeypatch):
    for corpus in (qa_corpus, snli_corpus):
        texts = [statement_text(st) for s in corpus.train for st in s.statements]
        seen = set()
        for text in texts:                   # the per-statement pass
            seen.update(tokenize(text))
        calls = []
        monkeypatch.setattr(model, "tokenize", lambda text: calls.append(text) or tokenize(text))
        vocab = build_vocabulary(corpus.train)
        monkeypatch.undo()
        assert vocab.tokens == (CLS_TOKEN, UNK_TOKEN, *sorted(seen - {CLS_TOKEN, UNK_TOKEN}))
        assert sorted(calls) == sorted(set(texts)) and len(calls) < len(texts)


def test_serialized_stream_matches_worked_example(qa_pair_set, vocab):
    t = serialize_set(vocab, qa_pair_set, shuffle_seed=0)
    words = [vocab.tokens[i] for i in t.tokens]
    expected = ("<cls> what color is desk ? the answer is brown . "
                "is desk brown ? the answer is yes .").split()
    assert sorted(words) == sorted(expected)
    assert words[0] == "<cls>"
    # boundaries partition the stream after CLS and map back to statements
    assert t.offsets[0][0] == 1
    assert t.offsets[-1][1] == len(t.tokens)
    rebuilt = sorted(t.order)
    assert rebuilt == [0, 1]


def test_singleton_statement_stream_is_shuffle_independent(vocab):
    s = StatementSet(
        id="one", provenance="C",
        statements=[
            Statement(kind="qa", question="is desk brown?", answer="yes"),
            Statement(kind="qa", question="is desk brown?", answer="yes"),
        ],
    )
    streams = {serialize_set(vocab, s, shuffle_seed=k).tokens for k in range(4)}
    assert len(streams) == 1


def test_shuffle_preserves_statement_segment_multiset(qa_pair_set, vocab):
    t1 = serialize_set(vocab, qa_pair_set, shuffle_seed=1)
    t2 = serialize_set(vocab, qa_pair_set, shuffle_seed=2)
    segs = lambda t: sorted(tuple(t.tokens[a:b]) for a, b in t.offsets)
    assert segs(t1) == segs(t2)


def test_oov_maps_to_unk(vocab):
    assert vocab.encode("zebra") == UNK_INDEX
    assert vocab.encode("desk") > UNK_INDEX
    assert vocab.tokens[CLS_INDEX] == "<cls>"
    assert vocab.tokens[UNK_INDEX] == "<unk>"


def _zero_params(vocab, d, h):
    params = ModelParams.init(vocab, d=d, h=h)
    for arr in params.arrays().values():
        arr[...] = 0.0
    return params


def test_zero_params_energy_is_head_bias(qa_pair_set, vocab):
    params = _zero_params(vocab, d=6, h=5)
    t = serialize_set(vocab, qa_pair_set, 0)
    assert energy(params, t) == 0.0
    params.b_energy[()] = -1.75
    assert energy(params, t) == -1.75


def test_permutation_invariance_is_exact(qa_pair_set, vocab):
    params = ModelParams.init(vocab, d=16, h=8, seed=3)
    energies = {energy(params, serialize_set(vocab, qa_pair_set, k)) for k in range(8)}
    assert len(energies) == 1


def test_encode_of_no_streams_is_empty(vocab):
    pooled, hidden = model.encode(ModelParams.init(vocab, d=6, h=5), np.zeros((0, len(vocab))))
    assert pooled.shape == (0, 6) and hidden.shape == (0, 5)
    assert pooled.dtype == hidden.dtype == np.float64


def test_zero_params_softmax_is_uniform(qa_pair_set, vocab):
    params = _zero_params(vocab, d=6, h=5)
    logits = binary_logits(params, serialize_set(vocab, qa_pair_set, 0))
    assert softmax(logits) == pytest.approx([0.5, 0.5])


def test_softmax_monotone_in_logit_gap():
    lo = softmax(np.array([0.0, 0.5]))
    hi = softmax(np.array([0.0, 2.0]))
    assert hi[1] > lo[1]


def _fd_check(params, f, grads, step=1e-4):
    worst = 0.0
    for name, arr in params.arrays().items():
        g = grads[name]
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + step
            plus = f()
            arr.flat[i] = orig - step
            minus = f()
            arr.flat[i] = orig
            fd = (plus - minus) / (2 * step)
            worst = max(worst, abs(g.flat[i] - fd) / max(1.0, abs(fd)))
    return worst


def test_energy_gradient_matches_finite_differences(qa_pair_set, vocab):
    params = ModelParams.init(vocab, d=5, h=4, seed=1)
    t = serialize_set(vocab, qa_pair_set, 0)
    _, grads = grad_energy(params, t)
    assert _fd_check(params, lambda: energy(params, t), grads) <= 1e-4


def test_logit_gradient_matches_finite_differences(qa_pair_set, vocab):
    params = ModelParams.init(vocab, d=5, h=4, seed=2)
    t = serialize_set(vocab, qa_pair_set, 0)
    upstream = np.array([0.3, -1.1])
    _, grads = grad_logits(params, t, upstream)
    assert _fd_check(params, lambda: float(upstream @ binary_logits(params, t)), grads) <= 1e-4


def test_gradient_zero_for_absent_tokens(qa_pair_set, vocab):
    params = ModelParams.init(vocab, d=5, h=4, seed=3)
    t = serialize_set(vocab, qa_pair_set, 0)
    _, grads = grad_energy(params, t)
    present = set(t.tokens)
    for row in range(len(vocab)):
        if row not in present:
            assert np.all(grads["emb"][row] == 0.0)


def test_energy_head_gradient_is_hidden_activation(qa_pair_set, vocab):
    # affine head: d(energy)/d(w_energy) equals the hidden vector, for any head value
    params = ModelParams.init(vocab, d=5, h=4, seed=4)
    t = serialize_set(vocab, qa_pair_set, 0)
    _, grads1 = grad_energy(params, t)
    params.w_energy += 2.5
    _, grads2 = grad_energy(params, t)
    assert np.allclose(grads1["w_energy"], grads2["w_energy"])


class TestParamsFile:
    def test_validate_names_a_wrong_shape(self, vocab):
        params = ModelParams.init(vocab, d=4, h=3, seed=0)
        params.b_class = np.zeros(3)
        with pytest.raises(ValueError, match=r"^b_class: shape \(3,\) != \(2,\)$"):
            params.validate()

    def test_round_trip_bit_identical(self, tmp_path, qa_pair_set, vocab):
        params = ModelParams.init(vocab, d=12, h=7, seed=9)
        path = tmp_path / "m.bin"
        save_params(params, path)
        loaded = load_params(path)
        t = serialize_set(vocab, qa_pair_set, 5)
        assert energy(params, t) == energy(loaded, t)
        assert loaded.init_seed == 9
        assert loaded.vocab.tokens == vocab.tokens
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, loaded.arrays()[name])

    def test_the_largest_seed_round_trips_and_a_larger_one_writes_no_file(self, tmp_path, vocab):
        path = tmp_path / "m.bin"
        save_params(ModelParams.init(vocab, d=4, h=3, seed=MAX_SEED), path)
        assert load_params(path).init_seed == MAX_SEED == 2**64 - 1
        path.unlink()
        with pytest.raises(struct.error):
            save_params(ModelParams.init(vocab, d=4, h=3, seed=MAX_SEED + 1), path)
        assert not path.exists()

    def test_truncated_file(self, tmp_path, vocab):
        path = tmp_path / "m.bin"
        save_params(ModelParams.init(vocab, d=4, h=3, seed=0), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(CorruptFileError):
            load_params(path)

    def test_bad_magic(self, tmp_path, vocab):
        path = tmp_path / "m.bin"
        save_params(ModelParams.init(vocab, d=4, h=3, seed=0), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError):
            load_params(path)

    def test_vocabulary_hash_mismatch(self, tmp_path, vocab):
        path = tmp_path / "m.bin"
        save_params(ModelParams.init(vocab, d=4, h=3, seed=0), path)
        data = bytearray(path.read_bytes())
        data[28] ^= 0xFF  # flip a byte inside the stored vocabulary hash
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            load_params(path)

    def test_trailing_bytes(self, tmp_path, vocab):
        path = tmp_path / "m.bin"
        save_params(ModelParams.init(vocab, d=4, h=3, seed=0), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptFileError):
            load_params(path)

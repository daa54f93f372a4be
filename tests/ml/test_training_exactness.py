"""Training's fast paths are exact: same weights, same moments, same losses.

``FastTextModel.fit`` accumulates each text's embedding gradient through a
per-text plan instead of ``np.add.at``, reuses one gradient table, and splits
each step by embedding row over up to ``_FIT_MAX_SHARDS`` threads;
``AdamOptimizer.step`` updates parameter and moments in place, block by
block.  The ``ufunc.at`` loop and the allocating step they replaced live on
here as the references, and every comparison is ``np.array_equal`` — the
operations and their order per element are unchanged, at any shard count, so
there is no tolerance to set.  Two gates pin the saving itself: what ``fit``
holds at its peak, and what a ``step`` allocates.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml import fasttext as fasttext_module
from repro.ml import trainer as trainer_module
from repro.ml.fasttext import FastTextConfig, FastTextModel
from repro.ml.trainer import AdamOptimizer, minibatch_indices


# ---------------------------------------------------------------------- #
# References: the code the fast paths replaced
# ---------------------------------------------------------------------- #
class AllocatingAdam:
    """``AdamOptimizer.step`` as it was: a fresh array per operation."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8, weight_decay=0.0):
        self.learning_rate, self.beta1, self.beta2 = learning_rate, beta1, beta2
        self.epsilon, self.weight_decay = epsilon, weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params, grads):
        self._t += 1
        t = self._t
        for name, grad in grads.items():
            if name not in params:
                continue
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * params[name]
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(grad)
                v = np.zeros_like(grad)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * (grad * grad)
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def reference_fit(model: FastTextModel, texts, targets) -> AllocatingAdam:
    """``FastTextModel.fit`` as it was: ``np.add.at`` into a fresh table per batch."""
    cfg = model.config
    targets = np.asarray(targets, dtype=np.float64)
    if model.task == "regression" and targets.ndim == 1:
        targets = targets[:, None]
    if model.task == "regression" and not np.any(model.head_bias):
        model.head_bias = targets.mean(axis=0).astype(np.float64)
    cached_ids = [model.bucket_ids(t) for t in texts]
    optimizer = AllocatingAdam(learning_rate=cfg.learning_rate, weight_decay=cfg.l2)
    params = {
        "embeddings": model.embeddings,
        "head_weight": model.head_weight,
        "head_bias": model.head_bias,
    }
    for epoch in range(cfg.n_epochs):
        epoch_loss = 0.0
        n_batches = 0
        for batch in minibatch_indices(len(texts), cfg.batch_size, cfg.seed, epoch):
            ids_batch = [cached_ids[i] for i in batch]
            hidden = np.stack([model.embeddings[ids].mean(axis=0) for ids in ids_batch], axis=0)
            logits = hidden @ model.head_weight + model.head_bias
            loss, grad_logits = model._loss_and_grad_logits(logits, targets[batch])
            epoch_loss += loss
            n_batches += 1
            grad_hidden = grad_logits @ model.head_weight.T
            grad_emb = np.zeros_like(model.embeddings)
            for row, ids in enumerate(ids_batch):
                np.add.at(grad_emb, ids, grad_hidden[row] / len(ids))
            grads = {
                "embeddings": grad_emb,
                "head_weight": hidden.T @ grad_logits,
                "head_bias": grad_logits.sum(axis=0),
            }
            optimizer.step(params, grads)
        model.history.record(epoch_loss / max(1, n_batches))
    return optimizer


def fit_keeping_the_optimizer(model: FastTextModel, texts, targets) -> AdamOptimizer:
    """``model.fit`` — and the optimizer it made, for its moment tables."""
    made: list[AdamOptimizer] = []

    def recording(**kwargs):
        made.append(AdamOptimizer(**kwargs))
        return made[-1]

    with mock.patch.object(fasttext_module, "AdamOptimizer", recording):
        model.fit(texts, targets)
    (optimizer,) = made
    return optimizer


def shards(n_shards: int):
    """Make ``fit`` split its steps into ``n_shards`` row shards."""
    return mock.patch.object(fasttext_module, "_fit_shards", lambda: n_shards)


SHARD_COUNTS = pytest.mark.parametrize("n_shards", [1, 2, 3])


def assert_same_training(ours, our_optimizer, reference, reference_optimizer):
    for name in ("embeddings", "head_weight", "head_bias"):
        assert np.array_equal(getattr(ours, name), getattr(reference, name)), name
        assert np.array_equal(our_optimizer._m[name], reference_optimizer._m[name]), name
        assert np.array_equal(our_optimizer._v[name], reference_optimizer._v[name]), name
    assert ours.history.train_loss == reference.history.train_loss


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
WORDS = ["the", "catalyst", "rbsout", "a", "aaaa", "Σ∫", "of", "of", "of", "x1"]
TEXTS = st.one_of(
    st.just(""),  # no words: the single zeros(1) id
    st.lists(st.sampled_from(WORDS), max_size=40).map(" ".join),
    st.sampled_from(["the " * 70, "aaaa " * 90 + "b", "of the of the of"]),  # deep repeat levels
    st.text(max_size=40),
)


@st.composite
def training_sets(draw):
    task = draw(st.sampled_from(["regression", "classification"]))
    texts = draw(st.lists(TEXTS, min_size=1, max_size=6))
    n_outputs = draw(st.integers(1, 3))
    if task == "regression":
        values = st.floats(-2.0, 2.0, allow_nan=False, width=64)
        targets = np.asarray(
            draw(st.lists(st.lists(values, min_size=n_outputs, max_size=n_outputs),
                          min_size=len(texts), max_size=len(texts)))
        )
    else:
        targets = np.asarray(
            draw(st.lists(st.integers(0, n_outputs - 1), min_size=len(texts), max_size=len(texts)))
        )
    config = FastTextConfig(
        embedding_dim=draw(st.sampled_from([4, 7])),
        n_buckets=draw(st.sampled_from([61, 256])),
        max_tokens=100,
        n_epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 4)),
        l2=draw(st.sampled_from([0.0, 1e-5, 0.01])),
        seed=draw(st.integers(0, 3)),
    )
    return task, texts, targets, n_outputs, config


# ---------------------------------------------------------------------- #
# Exactness
# ---------------------------------------------------------------------- #
@SHARD_COUNTS
class TestFitEqualsTheUfuncAtLoop:
    @settings(max_examples=150, deadline=None)
    @given(training_sets(), st.sampled_from([24, 100, trainer_module._ADAM_BLOCK_ELEMENTS]))
    @example(("regression", [""], np.zeros((1, 2)), 2, FastTextConfig(4, 61, n_epochs=2)), 24)
    @example(
        ("regression", ["the " * 70, "", "the the of"], np.eye(3), 3,
         FastTextConfig(7, 61, n_epochs=3, batch_size=2, l2=0.01)),
        24,
    )
    def test_weights_moments_and_losses_are_equal(self, n_shards, training_set, block_elements):
        task, texts, targets, n_outputs, config = training_set
        ours = FastTextModel(config, n_outputs, task)
        reference = FastTextModel(config, n_outputs, task)
        # Blocks of 24 or 100 elements cut these small tables into many
        # pieces, with a ragged last one; the real constant leaves one block.
        blocks = mock.patch.object(trainer_module, "_ADAM_BLOCK_ELEMENTS", block_elements)
        with blocks, shards(n_shards):
            our_optimizer = fit_keeping_the_optimizer(ours, texts, targets)
        reference_optimizer = reference_fit(reference, texts, targets)
        assert_same_training(ours, our_optimizer, reference, reference_optimizer)

    def test_a_word_repeated_past_66_levels(self, n_shards):
        texts = ["of " * 300 + "catalyst", "of the catalyst", ""]
        config = FastTextConfig(8, 128, max_tokens=400, n_epochs=2, batch_size=3)
        ((_, level_sizes),) = fasttext_module._scatter_plans(
            FastTextModel(config, 2).bucket_ids(texts[0]), [0, 128]
        )
        assert len(level_sizes) >= 300
        ours, reference = FastTextModel(config, 2), FastTextModel(config, 2)
        targets = np.asarray([[0.1, 0.9], [0.5, 0.5], [1.0, 0.0]])
        with shards(n_shards):
            our_optimizer = fit_keeping_the_optimizer(ours, texts, targets)
        assert_same_training(ours, our_optimizer, reference, reference_fit(reference, texts, targets))

    def test_a_text_whose_ids_all_fall_in_one_shard(self, n_shards):
        # An empty text is the single id 0: every other shard's plan for it
        # is empty, and a text of one repeated word touches few rows.
        texts, targets = ["", "of of of", "the catalyst of"], np.asarray([[0.2], [0.4], [0.9]])
        config = FastTextConfig(4, 61, n_epochs=2, batch_size=3)
        bounds = [61 * s // n_shards for s in range(n_shards + 1)]
        plans = fasttext_module._scatter_plans(FastTextModel(config, 1).bucket_ids(""), bounds)
        assert [len(by_count) for by_count, _ in plans] == [1] + [0] * (n_shards - 1)
        ours, reference = FastTextModel(config, 1), FastTextModel(config, 1)
        with shards(n_shards):
            our_optimizer = fit_keeping_the_optimizer(ours, texts, targets)
        assert_same_training(ours, our_optimizer, reference, reference_fit(reference, texts, targets))

    def test_a_second_fit_continues_exactly(self, n_shards):
        texts, targets = ["the catalyst of", "rbsout x1"], np.asarray([[0.9], [0.1]])
        ours, reference = (FastTextModel(FastTextConfig(4, 61, n_epochs=2), 1) for _ in range(2))
        for _ in range(2):
            with shards(n_shards):
                ours.fit(texts, targets)
            reference_fit(reference, texts, targets)
        assert np.array_equal(ours.embeddings, reference.embeddings)
        assert ours.history.train_loss == reference.history.train_loss


FIT_TEXTS = [f"the catalyst of sample {i} rbsout aaaa " * (1 + i % 3) for i in range(10)]
FIT_TARGETS = np.linspace(0.0, 1.0, 20).reshape(10, 2)
FIT_CONFIG = FastTextConfig(embedding_dim=8, n_buckets=4096, n_epochs=3, batch_size=4)


def fit_threads() -> list[threading.Thread]:
    prefix = fasttext_module.FIT_THREAD_PREFIX
    return [thread for thread in threading.enumerate() if thread.name.startswith(prefix)]


class TestFitShards:
    def test_shards_follow_the_cores_up_to_the_cap(self):
        with mock.patch.object(fasttext_module.os, "sched_getaffinity", lambda pid: {0}, create=True):
            assert fasttext_module._fit_shards() == 1
        with mock.patch.object(
            fasttext_module.os, "sched_getaffinity", lambda pid: set(range(64)), create=True
        ):
            assert fasttext_module._fit_shards() == fasttext_module._FIT_MAX_SHARDS

    def test_one_shard_builds_no_pool(self):
        model = FastTextModel(FIT_CONFIG, 2)
        with shards(1), mock.patch.object(
            fasttext_module, "ThreadPoolExecutor", side_effect=AssertionError("pool built")
        ):
            model.fit(FIT_TEXTS, FIT_TARGETS)

    def test_shards_run_on_named_threads_that_do_not_survive_fit(self):
        ran_on: set[str] = set()
        update = AdamOptimizer.update

        def recording(optimizer, name, *args, **kwargs):
            ran_on.add(threading.current_thread().name)
            return update(optimizer, name, *args, **kwargs)

        with shards(3), mock.patch.object(AdamOptimizer, "update", recording):
            FastTextModel(FIT_CONFIG, 2).fit(FIT_TEXTS, FIT_TARGETS)
        # The head's step runs on the caller's thread, the embedding rows'
        # on the pool's.
        prefix = f"{fasttext_module.FIT_THREAD_PREFIX}-"
        on_pool = {name for name in ran_on if name.startswith(prefix)}
        assert 1 <= len(on_pool) <= 3
        assert ran_on - on_pool == {threading.current_thread().name}
        assert fit_threads() == []

    def test_two_models_fitted_at_once_equal_their_solo_fits(self):
        # Six shard threads on two cores, switching as often as the
        # interpreter allows: a row written by the wrong shard, or scratch
        # shared between shards or optimizers, shows as a different weight.
        solo = [FastTextModel(FIT_CONFIG, 2, task) for task in ("regression", "classification")]
        together = [FastTextModel(FIT_CONFIG, 2, task) for task in ("regression", "classification")]
        targets = [FIT_TARGETS, (FIT_TARGETS[:, 0] > 0.5).astype(np.int64)]
        for model, target in zip(solo, targets):
            with shards(1):
                model.fit(FIT_TEXTS, target)
        threads = [
            threading.Thread(target=model.fit, args=(FIT_TEXTS, target))
            for model, target in zip(together, targets)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with shards(3):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for ours, alone in zip(together, solo):
            for name in ("embeddings", "head_weight", "head_bias"):
                assert np.array_equal(getattr(ours, name), getattr(alone, name)), name
            assert ours.history.train_loss == alone.history.train_loss
        assert fit_threads() == []


SHAPES = st.sampled_from([(1,), (5,), (3, 4), (1030, 64), (70001,), (2, 3, 5), (0, 4)])


class TestStepEqualsTheAllocatingStep:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(SHAPES, min_size=1, max_size=3),
        st.sampled_from([0.0, 1e-5, 0.1]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_parameters_and_moments_are_equal_and_grads_untouched(
        self, shapes, weight_decay, n_steps, seed
    ):
        rng = np.random.default_rng(seed)
        ours = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        theirs = {name: value.copy() for name, value in ours.items()}
        optimizer = AdamOptimizer(learning_rate=0.01, weight_decay=weight_decay)
        reference = AllocatingAdam(learning_rate=0.01, weight_decay=weight_decay)
        for _ in range(n_steps):
            grads = {name: rng.normal(size=value.shape) for name, value in ours.items()}
            handed_in = {name: grad.copy() for name, grad in grads.items()}
            optimizer.step(ours, grads)
            reference.step(theirs, handed_in)
            for name in ours:
                assert np.array_equal(grads[name], handed_in[name]), "step wrote to a gradient"
                assert np.array_equal(ours[name], theirs[name])
                assert np.array_equal(optimizer._m[name], reference._m[name])
                assert np.array_equal(optimizer._v[name], reference._v[name])

    def test_a_strided_parameter_is_updated_through_its_view(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(700, 128))
        ours, theirs = {"w": base[:, ::2]}, {"w": base[:, ::2].copy()}
        optimizer, reference = AdamOptimizer(weight_decay=0.01), AllocatingAdam(weight_decay=0.01)
        for _ in range(2):
            grad = rng.normal(size=(700, 64))
            optimizer.step(ours, {"w": grad})
            reference.step(theirs, {"w": grad})
        assert np.array_equal(base[:, ::2], theirs["w"])

    def test_a_gradient_of_another_shape_is_refused(self):
        with pytest.raises(ValueError, match="shape"):
            AdamOptimizer().step({"w": np.zeros((3, 4))}, {"w": np.zeros(4)})


# ---------------------------------------------------------------------- #
# The saving: what training holds, and what a step allocates
# ---------------------------------------------------------------------- #
def traced_peak(run) -> int:
    """Peak bytes allocated while ``run()`` executes, over what was held before."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


class TestTrainingHoldsThreeTables:
    @SHARD_COUNTS
    def test_fit_peaks_at_the_gradient_and_the_two_moments(self, n_shards):
        config = FastTextConfig(embedding_dim=32, n_buckets=16384, n_epochs=2, batch_size=4)
        model = FastTextModel(config, 3)
        texts = [f"the catalyst of sample {i} rbsout aaaa " * 6 for i in range(8)]
        targets = np.linspace(0.0, 1.0, 24).reshape(8, 3)
        with shards(n_shards):
            peak = traced_peak(lambda: model.fit(texts, targets))
        # One gradient table, two moment tables, two block-sized scratch
        # buffers per shard and the per-text gathers.  The allocating loop
        # peaked at 8 tables: a fresh gradient per batch and five live
        # temporaries per step.
        assert peak <= 3.5 * model.embeddings.nbytes

    def test_a_step_after_the_first_allocates_nothing_table_sized(self):
        params = {"table": np.ones((8192, 64)), "bias": np.ones(6)}
        grads = {"table": np.full((8192, 64), 0.5), "bias": np.ones(6)}
        optimizer = AdamOptimizer(weight_decay=1e-5)
        optimizer.step(params, grads)  # creates the moments and the scratch buffers
        peak = traced_peak(lambda: optimizer.step(params, grads))
        assert peak < params["table"].nbytes // 16

"""Optimiser and training-loop utilities shared by the numpy models.

Provides a parameter container, an Adam optimiser operating on named parameter
dictionaries, mini-batch iteration, and a small training-history record.  The
fastText and Transformer models express their gradients as name → array
dictionaries so the same optimiser drives both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.utils.rng import rng_from

#: A named set of parameters (or gradients): name → array.
ParamDict = dict[str, np.ndarray]


#: Elements of a parameter that one pass of :meth:`AdamOptimizer.step` walks
#: at a time (512 rows of a 64-wide table): a block of the parameter, its
#: gradient, both moments and both scratch buffers stays in cache across the
#: step's sixteen elementwise passes instead of streaming the whole table
#: through memory sixteen times.
_ADAM_BLOCK_ELEMENTS = 512 * 64


@dataclass
class AdamOptimizer:
    """Adam optimiser over a named parameter dictionary.

    A step updates the parameter and both moment tables in place, block by
    block through two block-sized scratch buffers, and never writes to the
    caller's gradient arrays: after the first step (which creates the
    moments) it allocates nothing the size of a parameter.

    :meth:`step` is :meth:`begin_step` followed by :meth:`update` of every
    parameter.  Every element's update depends on that element and the step
    count alone, so a caller may split a step's :meth:`update` calls by rows
    and run them on several threads: each distinct ``start`` row gets its
    own scratch buffers, and the moments exist once :meth:`begin_step` has
    returned.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    _m: ParamDict = field(default_factory=dict, init=False, repr=False)
    _v: ParamDict = field(default_factory=dict, init=False, repr=False)
    _t: int = field(default=0, init=False, repr=False)
    _corrections: tuple[float, float] = field(default=(1.0, 1.0), init=False, repr=False)
    _scratch: dict[tuple, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def step(self, params: ParamDict, grads: ParamDict) -> None:
        """Update ``params`` in place given ``grads`` (missing keys are skipped)."""
        present = {name: params[name] for name in grads if name in params}
        self.begin_step(present)
        for name, param in present.items():
            self.update(name, param, grads[name])

    def begin_step(self, params: ParamDict) -> None:
        """Count a step, fix its bias corrections, and create missing moments."""
        self._t += 1
        self._corrections = (1.0 - self.beta1**self._t, 1.0 - self.beta2**self._t)
        for name, param in params.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(param)
                self._v[name] = np.zeros_like(param)

    def update(
        self,
        name: str,
        param: np.ndarray,
        grad: np.ndarray,
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        """The current step's update of rows ``start:stop`` of one parameter."""
        if grad.shape != param.shape or grad.ndim == 0:
            raise ValueError(
                f"gradient {name!r} has shape {grad.shape}, its parameter {param.shape}: "
                "both must be one array shape with a leading axis"
            )
        m_correction, v_correction = self._corrections
        stop = len(param) if stop is None else stop
        row_elements = int(np.prod(param.shape[1:]))
        rows = max(1, _ADAM_BLOCK_ELEMENTS // max(1, row_elements))
        block_shape = (min(rows, stop - start), *param.shape[1:])
        scratch = self._scratch.get((block_shape, param.dtype, start))
        if scratch is None:
            scratch = self._scratch[block_shape, param.dtype, start] = (
                np.empty(block_shape, param.dtype),
                np.empty(block_shape, param.dtype),
            )
        for first in range(start, stop, rows):
            block = slice(first, min(first + rows, stop))
            p, g = param[block], grad[block]
            m, v = self._m[name][block], self._v[name][block]
            a, b = scratch[0][: len(p)], scratch[1][: len(p)]
            # Each line is one operation of the textbook update, on the
            # same operands in the same order, so every element is
            # rounded exactly as the allocating form rounds it.
            if self.weight_decay > 0.0:
                np.multiply(p, self.weight_decay, out=a)
                g = np.add(g, a, out=a)
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=b)
            np.add(m, b, out=m)
            # v = beta2 * v + (1 - beta2) * (g * g)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, g, out=b)
            np.multiply(b, 1.0 - self.beta2, out=b)
            np.add(v, b, out=v)
            # p -= learning_rate * m_hat / (sqrt(v_hat) + epsilon)
            np.divide(m, m_correction, out=a)
            np.multiply(a, self.learning_rate, out=a)
            np.divide(v, v_correction, out=b)
            np.sqrt(b, out=b)
            np.add(b, self.epsilon, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)

    def reset(self) -> None:
        """Clear optimiser state (moments and step counter)."""
        self._m.clear()
        self._v.clear()
        self._scratch.clear()
        self._t = 0


@dataclass
class TrainingHistory:
    """Per-epoch loss record (train and optional validation)."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)

    def record(self, train: float, validation: float | None = None) -> None:
        self.train_loss.append(float(train))
        if validation is not None:
            self.validation_loss.append(float(validation))


def require_training_rows(n_examples: int, targets: np.ndarray) -> None:
    """Refuse an empty training set, or one whose targets are not one row per example."""
    if n_examples == 0:
        raise ValueError("cannot fit on an empty training set")
    if len(targets) != n_examples:
        raise ValueError(f"{n_examples} texts but {len(targets)} target rows")


def minibatch_indices(
    n_examples: int, batch_size: int, seed: int, epoch: int
) -> Iterator[np.ndarray]:
    """Yield shuffled mini-batch index arrays for one epoch."""
    if n_examples <= 0:
        return
    rng = rng_from(seed, "minibatch", epoch)
    order = rng.permutation(n_examples)
    for start in range(0, n_examples, batch_size):
        yield order[start : start + batch_size]


def clip_gradients(grads: ParamDict, max_norm: float) -> float:
    """Clip gradients to a global L2 norm; returns the pre-clip norm."""
    total = 0.0
    for grad in grads.values():
        total += float(np.sum(grad * grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * scale
    return norm


def numerical_gradient(
    loss_fn: Callable[[], float], parameter: np.ndarray, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference numerical gradient (used by gradient-check tests)."""
    grad = np.zeros_like(parameter)
    flat = parameter.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        loss_plus = loss_fn()
        flat[i] = original - epsilon
        loss_minus = loss_fn()
        flat[i] = original
        grad_flat[i] = (loss_plus - loss_minus) / (2.0 * epsilon)
    return grad

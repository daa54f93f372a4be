"""The benchmark's shared input: a pool of distinct documents on disk.

One base corpus (``synthetic:<25*seconds>?seed=<seed>``) is generated once
per invocation — generation costs ~12 ms/document, far more than anything
the benchmark measures downstream — and multiplied by 16 *identity
variants*: ``dataclasses.replace(doc, doc_id=...)`` gives every variant a
new content hash (no cache entry is shared) and a new parser-noise stream
(the simulated parsers seed from the doc id), at the price of one SimPDF
write.  Documents are laid out 40 per request directory::

    <pool>/req-000/*.simpdf ... <pool>/req-NNN/*.simpdf

so a request is ``source="simpdf-dir:<pool>/req-NNN"`` and its documents are
re-read from disk as fresh objects every time it runs.

Building is untimed set-up shared by the workloads, so it uses both cores:
the directories are dealt to two worker processes by the base documents
they need, and each worker generates only its half of the base corpus.  The
workers are plain subprocesses of this module (``python -m
benchmarks.e2e.corpus``), started and waited for here: a ``multiprocessing``
pool would leave its resource tracker running past the end of the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Iterable

from repro.documents.corpus import CorpusConfig, build_document
from repro.documents.simpdf import SimPdfWriter

#: Documents per request directory; ``floor(alpha * 40)`` = 2 at the paper's
#: alpha = 0.05, the routing budget of every ``adaparse_ft`` request.
DOCS_PER_REQUEST = 40
#: Identity variants written per base document.
VARIANTS = 16
#: Base documents generated per second of ``--seconds``.
BASE_DOCS_PER_SECOND = 25
BUILD_PROCESSES = 2


def base_documents(seconds: int) -> int:
    """Size of the base corpus at this scale (500 at ``--seconds 20``)."""
    return BASE_DOCS_PER_SECOND * seconds


def request_dirs(seconds: int) -> int:
    """Request directories a full pool holds (two workloads' worth)."""
    return base_documents(seconds) * VARIANTS // DOCS_PER_REQUEST


def request_dir(pool: Path, index: int) -> Path:
    return pool / f"req-{index:03d}"


def request_source(pool: Path, index: int) -> str:
    """The ``ParseRequest.source`` string naming one request directory."""
    return f"simpdf-dir:{request_dir(pool, index)}"


def _write_dirs(pool: Path, seed: int, n_base: int, indexes: list[int]) -> dict[int, str]:
    """Write some request directories; returns each one's content digest.

    Document ``position`` of the pool is base document ``position % n_base``
    (the same documents ``synthetic:<n_base>?seed=<seed>`` yields) under
    variant ``position // n_base``.
    """
    config = CorpusConfig(n_documents=n_base, seed=seed)
    base: dict[int, object] = {}
    digests = {}
    for index in indexes:
        writer = SimPdfWriter(request_dir(pool, index))
        digest = hashlib.sha256()
        first = index * DOCS_PER_REQUEST
        for position in range(first, first + DOCS_PER_REQUEST):
            variant, base_index = divmod(position, n_base)
            if base_index not in base:
                base[base_index] = build_document(base_index, config)
            document = base[base_index]
            path = writer.write(
                dataclasses.replace(document, doc_id=f"{document.doc_id}-v{variant:02d}")
            )
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        digests[index] = digest.hexdigest()
    return digests


def _write_dirs_in_subprocesses(
    pool: Path, seed: int, n_base: int, shares: list[list[int]]
) -> list[dict[int, str]]:
    """:func:`_write_dirs` on each share in a process of its own, all waited for."""
    import repro

    roots = [Path(__file__).resolve().parents[2], Path(repro.__file__).resolve().parents[1]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, roots))}
    command = [sys.executable, "-m", "benchmarks.e2e.corpus"]
    command += [str(pool), str(seed), str(n_base)]
    workers = [
        subprocess.Popen(command + [str(i) for i in share], env=env, stdout=subprocess.PIPE)
        for share in shares
    ]
    try:
        outputs = [worker.communicate()[0] for worker in workers]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
    if any(worker.returncode for worker in workers):
        raise RuntimeError("a pool-building process failed; its traceback is above")
    return [{int(k): v for k, v in json.loads(output).items()} for output in outputs]


def build_pool(
    pool: Path, seed: int, seconds: int, wanted: Iterable[int]
) -> dict[str, object]:
    """Write the request directories in ``wanted``; the rest of the pool's
    layout is fixed by ``(seed, seconds)`` alone, so a directory holds the
    same bytes whichever subset is built.

    Returns ``pool_build_s``, the number of documents written and a
    fingerprint (sha256 over every directory's content digest, in order).
    """
    started = perf_counter()
    wanted = sorted(set(wanted))
    n_base = base_documents(seconds)
    if wanted and not 0 <= wanted[0] <= wanted[-1] < request_dirs(seconds):
        raise ValueError(f"request directories {wanted[0]}..{wanted[-1]} leave the pool")
    # Deal directories by the base documents they start at, so each process
    # generates one contiguous share of the base corpus.
    by_base = sorted(wanted, key=lambda index: index * DOCS_PER_REQUEST % n_base)
    shares = [
        by_base[i * len(by_base) // BUILD_PROCESSES : (i + 1) * len(by_base) // BUILD_PROCESSES]
        for i in range(BUILD_PROCESSES)
    ]
    digests: dict[int, str] = {}
    if len(wanted) < 2 * BUILD_PROCESSES:
        digests = _write_dirs(pool, seed, n_base, wanted)
    else:
        for share in _write_dirs_in_subprocesses(pool, seed, n_base, shares):
            digests.update(share)
    fingerprint = hashlib.sha256("".join(digests[i] for i in wanted).encode())
    return {
        "pool_build_s": perf_counter() - started,
        "pool_docs": len(wanted) * DOCS_PER_REQUEST,
        "pool_base_docs": n_base,
        "pool_fingerprint": fingerprint.hexdigest()[:16],
    }


if __name__ == "__main__":  # one share of build_pool: POOL SEED N_BASE INDEX...
    _pool, _seed, _n_base, *_indexes = sys.argv[1:]
    _written = _write_dirs(Path(_pool), int(_seed), int(_n_base), [int(i) for i in _indexes])
    print(json.dumps(_written))

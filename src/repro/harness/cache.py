"""On-disk result cache for simulation runs.

A run is fully determined by the benchmark *program* (every op, block
edge, and the initial memory image), the *machine configuration*, and the
build *seed* -- so cache keys are sha256 content hashes of exactly that
fingerprint, plus the (n_cores, strategy, max_cycles) cell coordinates.
Content hashing (rather than keying on the benchmark name) means a
workload-generator change invalidates stale entries automatically, and
sha256 (rather than Python's per-process randomized ``hash()``) keeps
keys stable across processes, so parallel workers and later invocations
share one cache.

The fingerprint text is large (one line per initialised memory word), so
a runner renders it once per program, on that program's first key, and
keeps only two seeded sha256 states (:class:`ProgramKeys`): the cell-key
prefix and the reference-key prefix.  Each cell key is a ``copy()`` of
the first plus the cell's config, seed, strategy, max_cycles and fault
suffix -- the same bytes as hashing the full text per cell.  No text is
retained, and nothing is cached across runners.

Each entry is one JSON file ``<key>.json`` under the cache root, written
atomically (temp file + rename) so concurrent workers never observe a
torn entry.  Entries are wrapped in a ``{"cache_version", "payload"}``
envelope; a read that finds anything else -- truncated JSON, a raw
payload from an older layout, the wrong version -- is a *miss*, never an
exception, and the offending file is quarantined (renamed to
``<name>.corrupt``) so it cannot poison the next probe.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..arch.config import MachineConfig
from ..isa.program import Program

#: Bump when the cached payload layout changes: old entries simply miss.
#: 3: RunResult payloads gained schema_version + metrics; v2 entries are
#: quarantined as misses on first probe (same path as corrupt files).
CACHE_VERSION = 3


def program_fingerprint(program: Program) -> str:
    """A deterministic text rendering of everything that affects a run:
    functions (in definition order), block structure and annotations, every
    operation, the arrays, and the initial memory image (one ``mem
    <addr>=<value>`` line per initialised word, in address order)."""
    lines = [f"program {program.name} entry={program.entry}"]
    for name, function in program.functions.items():
        lines.append(f"function {name} params={function.params!r}")
        for block in function.ordered_blocks():
            lines.append(
                f" block {block.label} taken={block.taken} fall={block.fall}"
                f" mode={block.mode} region={block.region}"
            )
            for op in block.ops:
                lines.append(f"  {op!r}")
    for name in sorted(program.arrays):
        symbol = program.arrays[name]
        lines.append(f"array {name} base={symbol.base} size={symbol.size}")
    # Segments are in address order (Program.memory_segments); one
    # %-format per segment renders its lines in a single C call.
    memory = [
        ("\nmem %d=%r" * len(values))
        % tuple(chain.from_iterable(zip(range(base, base + len(values)), values)))
        for base, values in program.memory_segments
    ]
    return "\n".join(lines) + "".join(memory)


class ProgramKeys:
    """The key prefixes of one program: its fingerprint rendered once,
    on the first key asked for, and kept only as the two seeded sha256
    states that every cell key and the reference key continue from.

    A runner holds one per program, so a session renders each program
    once however many cells it keys; the text itself is dropped as soon
    as it is hashed."""

    __slots__ = ("program", "_cell", "_reference")

    def __init__(self, program: Program) -> None:
        self.program = program
        self._cell: Optional[Any] = None
        self._reference: Optional[Any] = None

    def _seed(self) -> None:
        text = program_fingerprint(self.program).encode()
        self._cell = hashlib.sha256(f"v{CACHE_VERSION}\n".encode())
        self._cell.update(text)
        self._reference = hashlib.sha256(f"v{CACHE_VERSION} reference\n".encode())
        self._reference.update(text)

    def cell(self):
        """A fresh sha256 state of the cell-key prefix."""
        if self._cell is None:
            self._seed()
        return self._cell.copy()

    def reference(self):
        """A fresh sha256 state of the reference-key prefix."""
        if self._reference is None:
            self._seed()
        return self._reference.copy()


def _as_program_keys(program: Union[Program, ProgramKeys]) -> ProgramKeys:
    return program if isinstance(program, ProgramKeys) else ProgramKeys(program)


def cache_key(
    program: Union[Program, ProgramKeys],
    config: MachineConfig,
    seed: int,
    strategy: str,
    max_cycles: int,
    extra: str = "",
) -> str:
    """sha256 over the full run fingerprint.  ``MachineConfig`` is a frozen
    dataclass tree, so its repr is a complete, stable rendering.  ``extra``
    folds in any additional run-shaping state (e.g. a fault-injection
    configuration) so perturbed runs never share entries with clean ones.
    Pass a :class:`ProgramKeys` to key many cells of one program off a
    single fingerprint render."""
    digest = _as_program_keys(program).cell()
    digest.update(f"\nconfig {config!r}".encode())
    digest.update(f"\nseed {seed} strategy {strategy} "
                  f"max_cycles {max_cycles}".encode())
    if extra:
        digest.update(f"\n{extra}".encode())
    return digest.hexdigest()


def reference_key(program: Union[Program, ProgramKeys]) -> str:
    """Cache key for the reference interpreter's output arrays: they
    depend only on the program itself, not on any machine or strategy."""
    return _as_program_keys(program).reference().hexdigest()


class ResultCache:
    """A directory of JSON run results, keyed by content hash."""

    def __init__(self, root: Path, durable: bool = True) -> None:
        self.root = Path(root)
        #: fsync file + directory on every store (the crash-safety
        #: contract).  Off only for throughput-sensitive tests.
        self.durable = durable
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Truncated/garbled entry (a worker killed mid-write before the
            # atomic rename existed, disk trouble, manual tampering): treat
            # as a miss and move the file aside so it never re-offends.
            self.misses += 1
            self._quarantine(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("cache_version") != CACHE_VERSION
            or "payload" not in envelope
        ):
            # Parseable but not ours: raw pre-envelope payloads, foreign
            # JSON, or an entry from a different CACHE_VERSION.
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return envelope["payload"]

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        envelope = {"cache_version": CACHE_VERSION, "payload": payload}
        # Atomic, *durable* publish: the temp file is fsynced before the
        # rename and the directory entry after it, so a concurrent reader
        # sees the old entry or the new one -- and a SIGKILL or power
        # loss immediately after store() cannot leave a zero-length or
        # torn file behind the rename.  The run journal leans on this:
        # its ``completed`` records promise a durable cache entry.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle)
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            os.replace(tmp, self._path(key))
            if self.durable:
                self._fsync_root()
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _fsync_root(self) -> None:
        """fsync the cache directory so a just-renamed entry's name is
        durable too.  Best effort: some platforms/filesystems refuse
        directory fsync, and durability there degrades gracefully."""
        try:
            dir_fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    def _quarantine(self, path: Path) -> None:
        """Rename a bad entry to ``<name>.corrupt`` (unlink if the rename
        itself fails); quarantine never raises -- a cache problem must
        degrade to a miss, not kill the experiment."""
        self.quarantined += 1
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

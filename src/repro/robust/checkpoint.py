"""Crash-safe checkpoint/resume for the pipeline's long-running loops.

Table-1-scale runs are long-lived; PR 1's budgets and fallbacks degrade a
run *in process* but still throw away all completed work when the process
dies or a budget fires.  This module adds durable progress: versioned,
integrity-checked, atomically written snapshots of the three loops that
dominate wall-clock time —

* reachability (the BFS frontier + visited set, and the node DAG of
  saturation's current MDD with its sweep level),
* partition refinement (the current partition with its block ids, the
  splitter worklist, and the work counters),
* the iterative steady-state solvers (iterate vector + iteration count).

Checkpoint hooks piggyback on the same cooperative check sites the budget
system already instruments: each loop reads :func:`active` once at entry
(one global read — the entire inactive-path cost) and only engages when a
:class:`Checkpointer` is active.  ``BudgetExceeded`` escaping a loop
persists a final snapshot first, so re-running with a larger budget
continues instead of restarting.

On-disk format
--------------

A checkpoint directory holds one JSON file per snapshot key plus a
``MANIFEST.json`` mapping each file name to the sha256 of its exact
bytes.  Every write is atomic (tmp file + fsync + rename), so a crash
mid-write leaves either the old snapshot or the new one, never a torn
file.

A checkpoint directory may have *concurrent* writers: nothing stops
two processes from pointing at the same directory.  Two rules make
that safe.  First, every manifest mutation happens under an advisory
``flock`` on ``<directory>/.lock`` and starts by re-reading the
manifest from disk (read-merge-write), so one writer's manifest write
can never erase another's entry.  Second, keep_last pruning only ever
touches files of the *same* sequence-key base, so it cannot
garbage-collect snapshots written under another scope.  Each snapshot
records ``format`` (the schema version), a ``guard`` dict describing
the computation it belongs to (problem sizes, content digests),
``complete`` (whether the loop finished), and the ``payload``.

Resume is strictly best-effort: a snapshot that is missing from the
manifest, fails its hash, carries the wrong format version, or whose
guard does not match the caller's is *ignored* — the loop starts fresh
and the event is recorded (in :attr:`Checkpointer.events` and, when a
report is attached, as a ``checkpoint`` fallback in the
:class:`~repro.robust.report.RunReport`).  Corruption therefore degrades
to recomputation, never to a wrong answer.

Crash-equivalence is the contract: a run killed at any cooperative check
site and resumed from its checkpoints produces bitwise-identical
partitions and state spaces, and solution vectors equal within solver
tolerance, to an uninterrupted run
(``tests/test_crash_equivalence.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Type

try:
    import fcntl
except ImportError:  # non-POSIX: single-writer semantics only
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError

#: Schema version of snapshot records and the manifest.  Bump on any
#: incompatible payload change; old snapshots are then ignored (fresh
#: start), never misread.
FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"


class CheckpointError(ReproError):
    """A checkpoint directory could not be written at all.

    Read-side problems (corruption, staleness) never raise — they fall
    back to a fresh start.  This error covers unusable directories only.
    """


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------


def _fsync_directory(path: str) -> None:
    """Flush a directory entry so a rename survives a crash (best effort:
    some platforms/filesystems refuse O_RDONLY directory fds)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: tmp file, fsync, rename.

    A reader never observes a torn or partially written file — it sees
    either the previous contents or the new ones.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise CheckpointError(
            f"cannot atomically write {path!r}: {exc}"
        ) from exc
    _fsync_directory(directory)


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomic variant of ``open(path, "w").write(text)``."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: str, obj: Any, indent: Optional[int] = None) -> None:
    """Serialize ``obj`` as JSON and write it atomically."""
    atomic_write_text(path, json.dumps(obj, indent=indent))


def atomic_create_bytes(path: str, data: bytes) -> bool:
    """Atomically create ``path`` with ``data`` — a durable compare-and-set.

    Like :func:`atomic_write_bytes` (tmp file + fsync + publish), but the
    publish step is ``os.link``, which fails with ``EEXIST`` instead of
    overwriting.  Returns ``True`` if this call created the file, ``False``
    if some other writer got there first — the loser must re-read the
    winner's contents and react.  This is the primitive the service job
    store builds its lock-free state transitions on: two processes racing
    to append record ``N`` cannot both win, and the loser's data is never
    partially visible.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp_path, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    except OSError as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise CheckpointError(
            f"cannot atomically create {path!r}: {exc}"
        ) from exc
    _fsync_directory(directory)
    return True


def atomic_create_json(path: str, obj: Any) -> bool:
    """JSON variant of :func:`atomic_create_bytes`."""
    return atomic_create_bytes(path, json.dumps(obj).encode("utf-8"))


def digest(*chunks: bytes) -> str:
    """sha256 hex digest over the concatenation of ``chunks`` (used for
    snapshot guards: content fingerprints of matrices, seed sets, ...)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# the checkpointer
# ----------------------------------------------------------------------


@dataclass
class CheckpointEvent:
    """One thing the checkpointer did or refused to do.

    ``kind`` is one of ``saved``, ``complete`` (a final snapshot),
    ``resumed``, ``skipped`` (a complete snapshot short-circuited the
    loop), ``pruned`` (keep_last garbage collection), ``corrupt``,
    ``stale``, ``version-mismatch``, ``manifest-corrupt``,
    ``manifest-stale``, ``stale-lock-reclaimed`` (a dead holder's
    advisory lock was detected and taken over).
    """

    kind: str
    key: str
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "key": self.key, "detail": self.detail}


#: Event kinds that mean "a resume was attempted and fell back to a
#: fresh start" — these are surfaced as ``checkpoint`` fallbacks in the
#: RunReport so degraded resumes are visible to operators.
_FALLBACK_KINDS = frozenset(
    {"corrupt", "stale", "version-mismatch", "manifest-corrupt", "manifest-stale"}
)


def _jsonify(obj: Any) -> Any:
    """Round-trip through JSON so guard comparisons see what was stored
    (tuples become lists, numpy scalars are rejected early, ...)."""
    return json.loads(json.dumps(obj))


class Checkpointer:
    """Durable snapshots for one pipeline run.

    Use as a context manager to activate; the instrumented loops then
    find it through :func:`active` and checkpoint themselves.  A
    checkpointer is single-run state: construct a fresh one per pipeline
    invocation (sequence counters replay deterministically, which is how
    resumed runs line up with the snapshots of the killed run).

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    resume:
        When true, loops may load matching snapshots; when false,
        existing snapshots are ignored and overwritten.
    fingerprint:
        Optional string identifying the overall run configuration (model
        parameters, lumping kind, ...).  A manifest written by a run
        with a different fingerprint is treated as stale in its
        entirety.
    interval_iterations:
        Periodic-save stride: a loop's :meth:`tick` returns true every
        this many calls.  (Final and budget-exhaustion snapshots are
        written unconditionally.)
    min_save_interval_seconds:
        Additional floor between periodic saves of the same key (0
        disables the floor, keeping saves fully deterministic).
    keep_last:
        Per-sequence garbage collection: after each save of a key of the
        form ``scope/stage#N``, snapshots of the same scoped stage with
        sequence numbers ``<= N - keep_last`` are pruned.  ``None``
        (default) keeps everything.  Pruning is crash-safe: the doomed
        entries leave the manifest (atomically, after the new snapshot's
        manifest write fsyncs) *before* their files are unlinked, so a
        crash mid-prune leaves unreferenced orphan files, never a
        manifest pointing at deleted snapshots.
    report:
        Optional :class:`~repro.robust.report.RunReport` (duck-typed):
        resume fallbacks are recorded via ``record_fallback`` under the
        ``checkpoint`` stage and successful resumes via ``note``.
    """

    def __init__(
        self,
        directory: str,
        *,
        resume: bool = False,
        fingerprint: Optional[str] = None,
        interval_iterations: int = 256,
        min_save_interval_seconds: float = 0.0,
        keep_last: Optional[int] = None,
        report: Optional[Any] = None,
    ) -> None:
        if interval_iterations <= 0:
            raise ValueError(
                f"interval_iterations must be positive, not {interval_iterations!r}"
            )
        if keep_last is not None and keep_last < 1:
            raise ValueError(
                f"keep_last must be >= 1 or None, not {keep_last!r}"
            )
        self.directory = directory
        self.resume = resume
        self.fingerprint = fingerprint
        self.interval_iterations = interval_iterations
        self.min_save_interval_seconds = min_save_interval_seconds
        self.keep_last = keep_last
        self.pruned_count = 0
        self.events: List[CheckpointEvent] = []
        self._report = report
        self._scope: List[str] = []
        self._seq: Dict[str, int] = {}
        self._ticks: Dict[str, int] = {}
        self._last_save: Dict[str, float] = {}
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {directory!r}: {exc}"
            ) from exc
        self._lock_path = os.path.join(directory, ".lock")
        self._manifest: Dict[str, object] = {
            "format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "files": {},
        }
        if resume:
            with self._locked():
                self._load_manifest()

    # ------------------------------------------------------------------
    # activation and scoping
    # ------------------------------------------------------------------

    def __enter__(self) -> "Checkpointer":
        _ACTIVE.append(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        _ACTIVE.remove(self)

    @contextmanager
    def scoped(self, label: str) -> Iterator["Checkpointer"]:
        """Prefix snapshot keys with ``label`` inside the block, so the
        same loop checkpoints under distinct keys at distinct call sites
        (per pipeline stage, per lumping level, ...)."""
        self._scope.append(str(label))
        try:
            yield self
        finally:
            self._scope.pop()

    def sequence_key(self, stage: str) -> str:
        """A unique snapshot key for the next call of ``stage`` within
        the current scope.

        Repeated calls at the same scoped stage get ``#0``, ``#1``, ...
        — deterministic, so a resumed run's Nth call finds the killed
        run's Nth snapshot.
        """
        base = "/".join(self._scope + [stage])
        seq = self._seq.get(base, 0)
        self._seq[base] = seq + 1
        return f"{base}#{seq}"

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory exclusive lock on the checkpoint directory.

        Serializes manifest read-merge-write cycles across the processes
        sharing this directory.  Degrades to a no-op where ``fcntl`` is
        unavailable or the lockfile cannot be opened — single-writer behaviour, which
        is what those platforms had before.

        The holder stamps its PID into the lockfile.  A stamp naming a
        dead process is stale — left by a SIGKILLed holder (the kernel
        released its flock but the stamp survived) or by a wedged lock
        on a leaked descriptor — and is reclaimed instead of blocking
        resume forever, with the reclaim recorded in the RunReport.
        """
        if fcntl is None:
            yield
            return
        try:
            fd = self._acquire_lock_fd()
        except OSError:
            yield
            return
        if fd is None:
            yield
            return
        try:
            yield
        finally:
            try:
                os.ftruncate(fd, 0)
            except OSError:
                pass
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(fd)

    def _acquire_lock_fd(self) -> Optional[int]:
        """Open + flock the lockfile, reclaiming stale dead-PID locks.

        Returns the locked fd (stamped with our PID), or ``None`` when
        the lockfile cannot be opened (degrade to no-op, as before).
        """
        fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            # Contended.  If the stamped holder is dead the flock is
            # wedged (a leaked descriptor in a live relative, a stale
            # remote lock): unlink the inode so fresh lockers converge
            # on a new one, and retry on that.
            stale = self._stale_lock_pid(fd)
            if stale is not None:
                os.close(fd)
                try:
                    os.unlink(self._lock_path)
                except OSError:
                    pass
                self._event(
                    "stale-lock-reclaimed",
                    "",
                    f"advisory lock wedged by dead pid {stale}; "
                    "lockfile replaced",
                )
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_RDWR, 0o644
                )
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                # The blocking retry itself failed (EINTR, ENOLCK).  The
                # descriptor is open but unlocked: close it before
                # degrading, or it leaks — and a leaked lockfile fd is
                # exactly the wedged-lock failure this method reclaims.
                os.close(fd)
                raise
            self._stamp_lock_fd(fd)
            return fd
        # Uncontended — but a dead-PID stamp means the previous holder
        # crashed while holding the lock.  Resume proceeds (the flock
        # died with the holder); record that we reclaimed its leavings.
        stale = self._stale_lock_pid(fd)
        if stale is not None:
            self._event(
                "stale-lock-reclaimed",
                "",
                f"advisory lock stamp from dead pid {stale}; reclaimed",
            )
        self._stamp_lock_fd(fd)
        return fd

    def _stale_lock_pid(self, fd: int) -> Optional[int]:
        """The dead PID stamped in the lockfile, or ``None`` if the
        stamp is empty, unreadable, ours, or names a live process."""
        try:
            os.lseek(fd, 0, os.SEEK_SET)
            raw = os.read(fd, 64).split(b"\n", 1)[0].strip()
            pid = int(raw)
        except (OSError, ValueError):
            return None
        if pid <= 0 or pid == os.getpid():
            return None
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except OSError:
            pass
        return None

    def _stamp_lock_fd(self, fd: int) -> None:
        """Write our PID into the locked fd (best effort — the stamp is
        diagnostic metadata, not the lock itself)."""
        try:
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        except OSError:
            pass

    def _reload_files_locked(self) -> None:
        """Adopt the on-disk manifest's files map (caller holds the lock).

        Every manifest write happens under the lock and is preceded by
        this reload, so the in-memory map a writer is about to extend
        already contains every entry concurrent writers have published —
        a manifest write can only ever *add* information, never lose a
        sibling's.  An unreadable or foreign manifest keeps the
        in-memory view (the write below restores a valid one).
        """
        try:
            with open(self.manifest_path, "rb") as handle:
                loaded = json.loads(handle.read())
        except (OSError, ValueError):
            return
        if (
            not isinstance(loaded, dict)
            or loaded.get("format") != FORMAT_VERSION
        ):
            return
        files = loaded.get("files")
        if isinstance(files, dict):
            self._manifest["files"] = dict(files)

    def _filename(self, key: str) -> str:
        return re.sub(r"[^A-Za-z0-9._#-]", "_", key) + ".json"

    def _load_manifest(self) -> None:
        try:
            with open(self.manifest_path, "rb") as handle:
                loaded = json.loads(handle.read())
        except FileNotFoundError:
            return  # nothing to resume from; not an event
        except (OSError, ValueError) as exc:
            self._event("manifest-corrupt", "", str(exc))
            return
        if not isinstance(loaded, dict) or loaded.get("format") != FORMAT_VERSION:
            self._event(
                "manifest-corrupt",
                "",
                f"unsupported manifest format {loaded.get('format')!r}"
                if isinstance(loaded, dict)
                else "manifest is not a JSON object",
            )
            return
        if (
            self.fingerprint is not None
            and loaded.get("fingerprint") is not None
            and loaded.get("fingerprint") != self.fingerprint
        ):
            self._event(
                "manifest-stale",
                "",
                f"checkpoint fingerprint {loaded.get('fingerprint')!r} does "
                f"not match this run's {self.fingerprint!r}",
            )
            return
        files = loaded.get("files")
        if isinstance(files, dict):
            self._manifest["files"] = dict(files)

    def tick(self, key: str) -> bool:
        """Count one loop pass under ``key``; true when a periodic save
        is due (every ``interval_iterations`` passes, subject to the
        minimum seconds-between-saves floor)."""
        count = self._ticks.get(key, 0) + 1
        self._ticks[key] = count
        if count % self.interval_iterations:
            return False
        if self.min_save_interval_seconds > 0:
            last = self._last_save.get(key)
            if (
                last is not None
                and time.monotonic() - last < self.min_save_interval_seconds
            ):
                return False
        return True

    def save(
        self,
        key: str,
        payload: Any,
        guard: Optional[dict] = None,
        complete: bool = False,
    ) -> None:
        """Atomically persist a snapshot and update the manifest.

        The snapshot file is written (and fsynced) before the manifest,
        so a crash between the two leaves a manifest hash that no longer
        matches — which the loader treats as corruption, i.e. a fresh
        start.  The manifest update (and the prune that follows it) runs
        under the directory lock as a read-merge-write, so concurrent
        workers sharing the directory never lose each other's entries.
        ``payload`` and ``guard`` must be JSON-serializable.
        """
        record = {
            "format": FORMAT_VERSION,
            "key": key,
            "complete": bool(complete),
            "guard": guard or {},
            "payload": payload,
        }
        blob = json.dumps(record, separators=(",", ":")).encode("utf-8")
        filename = self._filename(key)
        atomic_write_bytes(os.path.join(self.directory, filename), blob)
        with self._locked():
            self._reload_files_locked()
            self._manifest["files"][filename] = hashlib.sha256(
                blob
            ).hexdigest()
            atomic_write_json(self.manifest_path, self._manifest)
            self._prune_locked(key)
        self._last_save[key] = time.monotonic()
        self._event("complete" if complete else "saved", key)

    def _prune_locked(self, key: str) -> None:
        """Garbage-collect old snapshots of ``key``'s scoped sequence
        (caller holds the directory lock).

        Runs only *after* the new snapshot's manifest write (which is
        fsynced), so the retained window always includes the snapshot
        just saved.  Manifest first, files second: a crash between the
        two leaves orphan files the manifest never references again —
        harmless — rather than manifest entries whose files are gone.
        Only files of ``key``'s own sequence base are candidates, so a
        concurrent writer's snapshots under another scope are never
        collected from here.
        """
        if self.keep_last is None:
            return
        base, sep, seq_token = key.rpartition("#")
        if not sep:
            return  # unsequenced key: nothing to roll over
        try:
            seq = int(seq_token)
        except ValueError:
            return
        prefix = re.sub(r"[^A-Za-z0-9._#-]", "_", base) + "#"
        cutoff = seq - self.keep_last  # prune sequence numbers <= cutoff
        if cutoff < 0:
            return
        doomed = []
        for filename in self._manifest["files"]:
            if not (filename.startswith(prefix) and filename.endswith(".json")):
                continue
            try:
                old_seq = int(filename[len(prefix) : -len(".json")])
            except ValueError:
                continue
            if old_seq <= cutoff:
                doomed.append(filename)
        if not doomed:
            return
        doomed.sort()
        for filename in doomed:
            del self._manifest["files"][filename]
        atomic_write_json(self.manifest_path, self._manifest)
        for filename in doomed:
            try:
                os.unlink(os.path.join(self.directory, filename))
            except OSError:
                pass  # orphan files are harmless; the manifest moved on
        self.pruned_count += len(doomed)
        self._event(
            "pruned",
            key,
            f"{len(doomed)} old snapshot(s) dropped "
            f"(keep_last={self.keep_last})",
        )

    def load(self, key: str, guard: Optional[dict] = None) -> Optional[dict]:
        """The snapshot record for ``key``, or ``None`` for a fresh start.

        ``None`` is returned — with the reason recorded as an event —
        when resume is disabled, no snapshot exists, the file is missing
        or fails its manifest hash, the format version differs, or the
        stored guard does not equal ``guard``.  Never raises.
        """
        if not self.resume:
            return None
        filename = self._filename(key)
        expected_hash = self._manifest["files"].get(filename)
        if expected_hash is None:
            return None  # nothing was ever saved here; silently fresh
        path = os.path.join(self.directory, filename)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            self._event("corrupt", key, f"unreadable snapshot: {exc}")
            return None
        if hashlib.sha256(blob).hexdigest() != expected_hash:
            self._event(
                "corrupt", key, "snapshot bytes do not match the manifest hash"
            )
            return None
        try:
            record = json.loads(blob)
        except ValueError as exc:
            self._event("corrupt", key, f"snapshot is not valid JSON: {exc}")
            return None
        if not isinstance(record, dict) or "payload" not in record:
            self._event("corrupt", key, "snapshot record is malformed")
            return None
        if record.get("format") != FORMAT_VERSION:
            self._event(
                "version-mismatch",
                key,
                f"snapshot format {record.get('format')!r}, "
                f"this library writes {FORMAT_VERSION}",
            )
            return None
        if guard is not None and record.get("guard") != _jsonify(guard):
            self._event(
                "stale",
                key,
                "snapshot belongs to a different computation "
                "(guard mismatch)",
            )
            return None
        self._event(
            "skipped" if record.get("complete") else "resumed", key
        )
        return record

    # ------------------------------------------------------------------
    # event recording
    # ------------------------------------------------------------------

    def _event(self, kind: str, key: str, detail: str = "") -> None:
        self.events.append(CheckpointEvent(kind=kind, key=key, detail=detail))
        if self._report is None:
            return
        if kind in _FALLBACK_KINDS:
            self._report.record_fallback(
                stage="checkpoint",
                requested=f"resume {key}" if key else "resume",
                used="fresh start",
                reason=f"{kind}: {detail}" if detail else kind,
            )
        elif kind == "skipped":
            self._report.note(
                f"checkpoint: reused completed snapshot {key}"
            )
        elif kind == "resumed":
            self._report.note(f"checkpoint: resumed {key} mid-loop")
        elif kind == "pruned":
            self._report.note(f"checkpoint: pruned {key}: {detail}")
        elif kind == "stale-lock-reclaimed":
            self._report.note(f"checkpoint: {detail}")

    def events_of_kind(self, *kinds: str) -> List[CheckpointEvent]:
        """The recorded events whose kind is one of ``kinds``."""
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    def __repr__(self) -> str:
        return (
            f"Checkpointer({self.directory!r}, resume={self.resume!r}, "
            f"snapshots={len(self._manifest['files'])})"
        )


# ----------------------------------------------------------------------
# the module-level hook the loops use
# ----------------------------------------------------------------------

#: Stack of active checkpointers (innermost last), mirroring the budget
#: stack so nested pipelines compose the same way.
_ACTIVE: List[Checkpointer] = []


def active() -> Optional[Checkpointer]:
    """The innermost active checkpointer, or ``None``.

    This is the loops' entire inactive-path cost: one global read at
    loop entry.
    """
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def scoped(label: str) -> Iterator[Optional[Checkpointer]]:
    """Scope the active checkpointer's keys under ``label``; a no-op
    context when no checkpointer is active."""
    ck = active()
    if ck is None:
        yield None
        return
    with ck.scoped(label):
        yield ck

"""One on-disk archive format for every array file the system writes.

Checkpoints, training states (:mod:`repro.train.resume`) and dataset
artifacts (:mod:`repro.data.ingest`) are schemas on one numpy-compatible
``.npz`` layout, and :func:`save_arrays` / :func:`load_arrays` are the
only functions that open an archive. Writes are atomic (temp file, fsync,
``os.replace``) and byte-deterministic (stored ``.npy`` members in sorted
order, fixed 1980 dates); a JSON manifest member records the format tag
and version, the caller's metadata and every array's
:func:`~repro.utils.integrity.array_sha256`, all verified on read. Every
failure is an :class:`ArchiveError`, and files from the earlier writers
still load. ``docs/data.md`` ("On-disk archives") has the details.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.utils.integrity import array_sha256

#: format tag and version every manifest written here carries
ARCHIVE_TAG = {"archive_format": "repro-archive", "archive_version": 1}

_MANIFEST = "__checkpoint_meta__"
_DATASET_V1_MANIFEST = "meta.json"
_HASH_KEY = "array_sha256"
#: fixed zip member date — wall-clock stamps would make every save differ
_EPOCH = (1980, 1, 1, 0, 0, 0)
_READ_CHUNK = 1 << 24
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}
#: what zipfile, zlib, the npy parser and json raise on a damaged file
_DAMAGE = (zipfile.BadZipFile, zlib.error, struct.error, RuntimeError,
           KeyError, OSError, EOFError, ValueError, OverflowError)


class ArchiveError(ValueError):
    """An archive could not be read back as exactly what was saved."""


class ArchiveFormatError(ArchiveError):
    """Not a readable archive of this format: damaged, truncated, foreign,
    or with members and recorded hashes that do not list the same arrays."""


class CheckpointIntegrityError(ArchiveError):
    """An array's content hash did not match the one its manifest records."""


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray],
                metadata: dict | None = None) -> Path:
    """Atomically write named arrays plus JSON metadata; returns the path.

    ``path`` gets a ``.npz`` suffix if it has another one. Any
    ``array_sha256`` entry in ``metadata`` is replaced by the hashes of
    ``arrays``.

    >>> import tempfile
    >>> folder = tempfile.TemporaryDirectory()
    >>> a, b = (save_arrays(f"{folder.name}/{name}", {"w": np.arange(3.0)},
    ...                     {"step": 7}) for name in ("a", "b"))
    >>> arrays, meta = load_arrays(a)
    >>> a.name, arrays["w"], meta["step"], a.read_bytes() == b.read_bytes()
    ('a.npz', array([0., 1., 2.]), 7, True)
    >>> folder.cleanup()
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    if _MANIFEST in arrays:
        raise ValueError(f"array name collides with reserved key {_MANIFEST}")
    arrays = {name: np.asarray(arrays[name]) for name in sorted(arrays)}
    manifest = dict(metadata or {}, **ARCHIVE_TAG)
    manifest[_HASH_KEY] = {name: array_sha256(value)
                           for name, value in arrays.items()}
    members = {_MANIFEST: np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8),
        **arrays}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb")  # exclusive: never touches another writer's file
    try:
        with fh:
            with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
                for name, array in members.items():
                    info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH)
                    info.external_attr = 0o644 << 16
                    with archive.open(info, "w", force_zip64=True) as member:
                        np.lib.format.write_array(member, array,
                                                  allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_arrays(path: str | Path,
                verify: bool = True) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive written by :func:`save_arrays` → (arrays, metadata).

    The metadata is the caller's plus the recorded ``array_sha256``
    hashes. Each array is checked against its hash unless
    ``verify=False``; a mismatch raises :class:`CheckpointIntegrityError`
    and any other damage :class:`ArchiveFormatError`. A missing file
    raises ``FileNotFoundError``.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as archive:
                infos = archive.infolist()
                members = {info.filename: info for info in infos}
                if len(members) != len(infos):
                    raise ArchiveFormatError(
                        f"archive {path} lists a member name twice")
                if f"{_MANIFEST}.npy" in members:
                    manifest = json.loads(_read_npy(
                        archive, members.pop(f"{_MANIFEST}.npy")).tobytes())
                    legacy = all(info.compress_type == zipfile.ZIP_DEFLATED
                                 for info in infos)
                elif _DATASET_V1_MANIFEST in members:
                    manifest = json.loads(archive.read(
                        members.pop(_DATASET_V1_MANIFEST)))
                    legacy = True
                else:
                    raise ArchiveFormatError(
                        f"{path} is not a repro archive artifact: it has "
                        "no manifest member")
                arrays = {name.removesuffix(".npy"): _read_npy(archive, info)
                          for name, info in members.items()}
        except ArchiveError:
            raise
        except _DAMAGE as exc:
            raise ArchiveFormatError(
                f"{path} is not a readable repro archive artifact "
                f"(damaged or truncated): {type(exc).__name__}: {exc}"
            ) from exc
    if not isinstance(manifest, dict):
        raise ArchiveFormatError(f"archive {path} has a malformed manifest")
    tag = {key: manifest.pop(key, None) for key in ARCHIVE_TAG}
    if not legacy and tag != ARCHIVE_TAG:
        raise ArchiveFormatError(f"archive {path} has unsupported format "
                                 f"{tag}; this build reads {ARCHIVE_TAG}")
    hashes = manifest.get(_HASH_KEY)
    if hashes is None and legacy:
        return arrays, manifest  # written before per-array hashes existed
    listed = set(hashes) if isinstance(hashes, dict) else set()
    if listed != set(arrays):
        raise ArchiveFormatError(
            f"archive {path} members and recorded hashes disagree: no hash "
            f"for {sorted(set(arrays) - listed)}, no member for "
            f"{sorted(listed - set(arrays))}")
    if verify:
        bad = sorted(name for name, value in arrays.items()
                     if hashes[name] != array_sha256(value))
        if bad:
            raise CheckpointIntegrityError(
                f"archive {path} failed integrity verification: array "
                f"content hash mismatch for {bad} — the file was corrupted "
                "or modified after it was saved")
    return arrays, manifest


def _read_npy(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """One ``.npy`` member. Its header must account for exactly the
    member's size before anything is allocated; reading to the end runs
    zipfile's CRC check."""
    with archive.open(info) as member:
        shape, fortran, dtype = _NPY_HEADERS[np.lib.format.read_magic(member)](
            member)
        nbytes = math.prod(shape) * dtype.itemsize
        if dtype.hasobject or member.tell() + nbytes != info.file_size:
            raise ValueError(f"member {info.filename!r} has a .npy header "
                             "that does not match its size")
        buffer = bytearray(nbytes)
        view = memoryview(buffer)
        for start in range(0, len(buffer), _READ_CHUNK):
            view[start:start + _READ_CHUNK] = member.read(_READ_CHUNK)
    return np.frombuffer(buffer, dtype=dtype).reshape(
        shape, order="F" if fortran else "C")


def save_checkpoint(model, path: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write ``model.state_dict()`` plus JSON-serializable ``metadata``
    (epoch, metrics, config echo, ...; ``num_parameters`` unless given)."""
    state = model.state_dict()
    meta = dict(metadata or {})
    meta.setdefault("num_parameters", int(sum(v.size for v in state.values())))
    return save_arrays(path, state, meta)


def peek_checkpoint(path: str | Path) -> dict:
    """The verified metadata of a checkpoint, without a model to fill."""
    return load_arrays(path)[1]


def load_checkpoint(model, path: str | Path, verify: bool = True) -> dict:
    """Load parameters saved by :func:`save_checkpoint`; returns metadata.

    ``verify=False`` skips the hash check (deliberately patched archives).
    """
    arrays, metadata = load_arrays(path, verify=verify)
    model.load_state_dict(arrays)
    return metadata

"""Utility helpers: the on-disk archive format and content hashing."""

from repro.utils.checkpoint import (
    ArchiveError,
    ArchiveFormatError,
    CheckpointIntegrityError,
    load_arrays,
    load_checkpoint,
    peek_checkpoint,
    save_arrays,
    save_checkpoint,
)
from repro.utils.integrity import array_sha256

__all__ = ["save_arrays", "load_arrays", "save_checkpoint", "load_checkpoint",
           "peek_checkpoint", "ArchiveError", "ArchiveFormatError",
           "CheckpointIntegrityError", "array_sha256"]

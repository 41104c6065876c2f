"""Seeded property tests for the one on-disk archive format.

Checkpoints, training states and dataset artifacts are schemas on
:func:`repro.utils.save_arrays`; every way of damaging one of them —
truncation at any offset, a changed byte anywhere, a member swapped in
from another archive, a dropped manifest, an extra member, a deleted
member — must either raise an :class:`repro.utils.ArchiveError` subclass
or load arrays that are byte-identical to what was saved, with identical
metadata. Never anything else, and never unverified content.

Also here: byte-determinism of every writer, and the legacy fixtures in
``tests/fixtures/archives`` (files written before the format was
unified), which must keep loading with exact content.
"""

import io
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    leave_one_out_split,
    load_dataset_npz,
    save_dataset_npz,
    taobao_like,
)
from repro.models import BiasMF
from repro.nn import MLP
from repro.train.resume import load_training_state, save_training_state
from repro.train.trainer import TrainConfig
from repro.utils import (
    ArchiveError,
    ArchiveFormatError,
    CheckpointIntegrityError,
    array_sha256,
    load_arrays,
    load_checkpoint,
    peek_checkpoint,
    save_arrays,
    save_checkpoint,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "archives"


# ----------------------------------------------------------------------
# the three archive kinds: a writer and a loader flattened to
# (arrays, metadata) through each kind's public reader
# ----------------------------------------------------------------------

def _mlp(seed):
    return MLP([3, 4, 2], rng=np.random.default_rng(seed))


def write_checkpoint(path, seed):
    return save_checkpoint(_mlp(seed), path, metadata={"seed": seed})


def read_checkpoint(path):
    model = _mlp(99)
    meta = load_checkpoint(model, path)
    return model.state_dict(), meta


def write_state(path, seed):
    rng = np.random.default_rng(seed)
    model_state = {"P": rng.standard_normal((5, 3)),
                   "b": rng.standard_normal(5).astype(np.float32)}
    optimizer = {"P": {"m": rng.standard_normal((5, 3)), "param_t": seed},
                 "b": {"row_steps": np.arange(5, dtype=np.int64)}}
    return save_training_state(path, model_state, optimizer,
                               {"epoch": 1, "step_in_epoch": 2,
                                "global_step": 6, "config": {"seed": seed}})


def read_state(path):
    state = load_training_state(path)
    arrays = {f"model::{name}": value
              for name, value in state.model_state.items()}
    scalars = {}
    for pname, slots in state.optimizer_states.items():
        for slot, value in slots.items():
            if isinstance(value, np.ndarray):
                arrays[f"optim::{pname}::{slot}"] = value
            else:
                scalars[f"{pname}::{slot}"] = value
    return arrays, dict(state.meta, _scalars=scalars)


def write_dataset(path, seed):
    return save_dataset_npz(taobao_like(num_users=5, num_items=7, seed=seed),
                            path)


def read_dataset(path):
    dataset, meta = load_dataset_npz(path)
    arrays = {f"{behavior}/{label}": array
              for behavior in dataset.behavior_names
              for label, array in zip(("users", "items", "timestamps"),
                                      dataset.arrays(behavior))}
    return arrays, dict(meta, _counts=(dataset.num_users, dataset.num_items))


KINDS = {
    "checkpoint": (write_checkpoint, read_checkpoint),
    "train-state": (write_state, read_state),
    "dataset": (write_dataset, read_dataset),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return request.param


@pytest.fixture
def archive(kind, tmp_path):
    """(kind, path, clean bytes, clean (arrays, meta)) of one archive."""
    write, read = KINDS[kind]
    path = write(tmp_path / "clean.npz", seed=1)
    return kind, path, path.read_bytes(), read(path)


def assert_identical(loaded, expected):
    arrays, meta = loaded
    want_arrays, want_meta = expected
    assert sorted(arrays) == sorted(want_arrays)
    for name, value in arrays.items():
        want = want_arrays[name]
        assert value.dtype == want.dtype and value.shape == want.shape, name
        assert value.tobytes() == want.tobytes(), name
    assert meta == want_meta


def check_damaged(kind, path, expected):
    """Load ``path``: a typed error or exactly the clean content.

    Returns ``True`` when the load was refused."""
    try:
        loaded = KINDS[kind][1](path)
    except ArchiveError:
        return True
    assert_identical(loaded, expected)
    return False


def members(data):
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {info.filename: archive.read(info)
                for info in archive.infolist()}


def write_members(path, entries):
    """Rebuild an archive from raw member bytes (stored, like the writer)."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, payload in entries.items():
            archive.writestr(zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0)),
                             payload)
    return path


MANIFEST = "__checkpoint_meta__.npy"


# ----------------------------------------------------------------------
# corruption properties
# ----------------------------------------------------------------------

class TestCorruption:
    def test_clean_roundtrip(self, archive):
        kind, path, _, expected = archive
        assert_identical(KINDS[kind][1](path), expected)

    def test_truncation_at_every_offset(self, archive, tmp_path):
        kind, _, data, expected = archive
        damaged = tmp_path / "cut.npz"
        for offset in range(len(data)):
            damaged.write_bytes(data[:offset])
            assert check_damaged(kind, damaged, expected), offset

    def test_every_byte_changed(self, archive, tmp_path):
        kind, _, data, expected = archive
        rng = np.random.default_rng(len(data))
        masks = rng.integers(1, 256, size=len(data))
        damaged = tmp_path / "flip.npz"
        refused = 0
        for offset, mask in enumerate(masks):
            flipped = bytearray(data)
            flipped[offset] ^= int(mask)
            damaged.write_bytes(bytes(flipped))
            refused += check_damaged(kind, damaged, expected)
        # bytes zipfile never reads back (dates, attributes, padding) may
        # change harmlessly; every content byte is covered by a CRC or hash
        assert refused > len(data) // 2

    def test_member_swapped_from_another_archive(self, archive, tmp_path):
        kind, _, data, _ = archive
        other = KINDS[kind][0](tmp_path / "other.npz", seed=2).read_bytes()
        mine, theirs = members(data), members(other)
        assert set(mine) == set(theirs)
        swapped = [name for name in mine if mine[name] != theirs[name]]
        assert MANIFEST in swapped and len(swapped) > 1
        for name in swapped:
            path = write_members(tmp_path / "swap.npz",
                                 dict(mine, **{name: theirs[name]}))
            with pytest.raises(CheckpointIntegrityError,
                               match="hash mismatch"):
                KINDS[kind][1](path)

    def test_manifest_dropped(self, archive, tmp_path):
        kind, _, data, _ = archive
        entries = members(data)
        del entries[MANIFEST]
        path = write_members(tmp_path / "bare.npz", entries)
        with pytest.raises(ArchiveFormatError, match="no manifest"):
            KINDS[kind][1](path)

    def test_unlisted_member_added(self, archive, tmp_path):
        kind, _, data, _ = archive
        extra = io.BytesIO()
        np.save(extra, np.zeros(3))
        path = write_members(tmp_path / "extra.npz",
                             dict(members(data), **{"extra.npy":
                                                    extra.getvalue()}))
        with pytest.raises(ArchiveFormatError, match="no hash for .'extra'"):
            KINDS[kind][1](path)

    def test_listed_member_deleted(self, archive, tmp_path):
        kind, _, data, _ = archive
        entries = members(data)
        for name in [n for n in entries if n != MANIFEST]:
            path = write_members(
                tmp_path / "short.npz",
                {n: payload for n, payload in entries.items() if n != name})
            with pytest.raises(ArchiveFormatError, match="no member for"):
                KINDS[kind][1](path)

    def test_duplicate_member_name(self, archive, tmp_path):
        kind, _, data, _ = archive
        entries = members(data)
        name = next(n for n in entries if n != MANIFEST)
        path = write_members(tmp_path / "dup.npz", entries)
        with pytest.warns(UserWarning, match="Duplicate name"):
            with zipfile.ZipFile(path, "a") as handle:
                handle.writestr(name, entries[name])
        with pytest.raises(ArchiveFormatError, match="twice"):
            KINDS[kind][1](path)

    def test_npy_header_overclaiming_size_is_refused(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz", {"w": np.zeros(4)})
        entries = members(path.read_bytes())
        entries["w.npy"] = entries["w.npy"].replace(b"(4,)", b"(9,)")
        write_members(path, entries)
        with pytest.raises(ArchiveFormatError, match="does not match"):
            load_arrays(path)

    def test_errors_are_value_errors(self):
        assert issubclass(ArchiveError, ValueError)
        assert issubclass(ArchiveFormatError, ArchiveError)
        assert issubclass(CheckpointIntegrityError, ArchiveError)


class TestFormat:
    def test_missing_file_is_not_an_archive_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_arrays(tmp_path / "absent.npz")

    def test_unknown_archive_version_refused(self, tmp_path):
        import json

        path = save_arrays(tmp_path / "a.npz", {"w": np.ones(2)})
        entries = members(path.read_bytes())
        with zipfile.ZipFile(path) as handle:
            raw = np.load(handle.open(MANIFEST))
        manifest = json.loads(raw.tobytes())
        manifest["archive_version"] = 99
        buffer = io.BytesIO()
        np.save(buffer, np.frombuffer(json.dumps(manifest).encode(),
                                      dtype=np.uint8))
        write_members(path, dict(entries, **{MANIFEST: buffer.getvalue()}))
        with pytest.raises(ArchiveFormatError, match="unsupported format"):
            load_arrays(path)

    def test_malformed_manifest_refused(self, tmp_path):
        buffer = io.BytesIO()
        np.save(buffer, np.frombuffer(b"[1, 2]", dtype=np.uint8))
        path = write_members(tmp_path / "a.npz", {MANIFEST: buffer.getvalue()})
        with pytest.raises(ArchiveFormatError, match="malformed manifest"):
            load_arrays(path)

    def test_peek_checkpoint_is_the_verified_metadata(self, tmp_path):
        path = save_checkpoint(_mlp(0), tmp_path / "c", metadata={"epoch": 2})
        assert peek_checkpoint(path) == load_checkpoint(_mlp(1), path)

    def test_stored_members_in_fixed_order(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz",
                           {"b": np.ones(2), "a": np.zeros(2)}, {"k": 1})
        with zipfile.ZipFile(path) as handle:
            infos = handle.infolist()
        assert [i.filename for i in infos] == [MANIFEST, "a.npy", "b.npy"]
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}

    def test_plain_numpy_reads_the_arrays(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz", {"w": np.arange(4.0)})
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["w"], np.arange(4.0))

    def test_fortran_and_scalar_arrays_roundtrip(self, tmp_path):
        arrays = {"f": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
                  "s": np.array(3.5), "e": np.zeros((0, 4), np.float32)}
        loaded, meta = load_arrays(save_arrays(tmp_path / "a.npz", arrays))
        for name, value in arrays.items():
            assert loaded[name].dtype == value.dtype
            np.testing.assert_array_equal(loaded[name], value)
            assert meta["array_sha256"][name] == array_sha256(value)
        assert loaded["f"].flags.writeable

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_arrays(tmp_path / "a.npz",
                        {"__checkpoint_meta__": np.zeros(1)})

    def test_failed_save_leaves_previous_file_and_no_temp(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz", {"w": np.ones(3)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_arrays(path, {"w": np.array([object()])})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_every_writer_is_byte_deterministic(self, kind, tmp_path):
        write = KINDS[kind][0]
        first = write(tmp_path / "a.npz", seed=3).read_bytes()
        second = write(tmp_path / "b.npz", seed=3).read_bytes()
        assert first == second

    def test_save_checkpoint_of_same_model_twice(self, tmp_path):
        model = _mlp(5)
        a = save_checkpoint(model, tmp_path / "a", metadata={"epoch": 1})
        b = save_checkpoint(model, tmp_path / "b", metadata={"epoch": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_trainer_states_byte_identical(self, tmp_path):
        split = leave_one_out_split(taobao_like(num_users=10, num_items=16,
                                                seed=0))
        paths = []
        for name in ("a.npz", "b.npz"):
            paths.append(tmp_path / name)
            _biasmf(split).fit(split.train,
                               _state_config(2, save_state=str(paths[-1])))
        assert paths[0].read_bytes() == paths[1].read_bytes()


# ----------------------------------------------------------------------
# legacy fixtures
# ----------------------------------------------------------------------

LEGACY_META = {"model": "MLP", "epoch": 3, "hr10": 0.25,
               "num_parameters": 26}


def _biasmf(split):
    return BiasMF(split.train.num_users, split.train.num_items,
                  embedding_dim=2, seed=0)


def _state_config(epochs, **overrides):
    return TrainConfig(epochs=epochs, steps_per_epoch=2, batch_users=4,
                       per_user=2, seed=0, eval_every=1, **overrides)


class TestLegacyFixtures:
    def test_fixtures_are_small(self):
        for path in FIXTURES.glob("*.npz"):
            assert path.stat().st_size < 8192, path

    @pytest.mark.parametrize("name,hashed", [("checkpoint_hashed", True),
                                             ("checkpoint_unhashed", False)])
    def test_checkpoint(self, name, hashed):
        expected = _mlp(0).state_dict()
        model = _mlp(7)
        meta = load_checkpoint(model, FIXTURES / f"{name}.npz")
        assert_identical((model.state_dict(), meta),
                         (expected, dict(LEGACY_META, **(
                             {"array_sha256": {k: array_sha256(v) for k, v
                                               in expected.items()}}
                             if hashed else {}))))

    def test_hashed_checkpoint_still_verified(self, tmp_path):
        entries = members((FIXTURES / "checkpoint_hashed.npz").read_bytes())
        other = members(save_checkpoint(_mlp(1), tmp_path / "o").read_bytes())
        name = "layers.items.0.weight.npy"
        # swap in a member of the same shape: the recorded hash catches it
        path = tmp_path / "legacy.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            for member, payload in dict(entries, **{name: other[name]}).items():
                archive.writestr(member, payload)
        with pytest.raises(CheckpointIntegrityError, match="hash mismatch"):
            load_checkpoint(_mlp(0), path)

    def test_training_state_content_and_resume(self, tmp_path):
        split = leave_one_out_split(taobao_like(num_users=10, num_items=16,
                                                seed=0))
        fixture = str(FIXTURES / "train_state_v2.npz")
        fresh = str(tmp_path / "fresh.npz")
        _biasmf(split).fit(split.train, _state_config(2, save_state=fresh))
        assert_identical(read_state(fixture), read_state(fresh))
        assert load_training_state(fixture).meta["state_version"] == 2

        full = _biasmf(split)
        h_full = full.fit(split.train, _state_config(3))
        resumed = _biasmf(split)
        h_resumed = resumed.fit(split.train, _state_config(3),
                                resume_from=fixture)
        assert_identical((resumed.state_dict(), {}), (full.state_dict(), {}))
        assert h_resumed.rows == h_full.rows

    def test_dataset_v1_artifact(self):
        source = taobao_like(num_users=6, num_items=9, seed=4)
        dataset, meta = load_dataset_npz(FIXTURES / "dataset_v1.npz")
        assert meta == {"format": "repro-dataset-npz-v1",
                        "name": "taobao-like",
                        "behavior_names": list(source.behavior_names),
                        "target_behavior": source.target_behavior,
                        "num_users": 6, "num_items": 9,
                        "has_timestamps": True}
        assert dataset.behavior_names == source.behavior_names
        for behavior in source.behavior_names:
            for got, want in zip(dataset.arrays(behavior),
                                 source.arrays(behavior)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

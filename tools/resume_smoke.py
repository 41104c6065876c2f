"""CI smoke for mid-epoch resume: train, SIGKILL, resume, bit-match.

The pytest resume suite simulates crashes with an in-process exception;
this script delivers a real ``SIGKILL`` — no cleanup handlers, no atexit,
the process is simply gone mid-epoch — and requires the resume contract
to hold anyway:

1. train a tiny sharded GNMR to completion in-process (the reference);
2. run the same training in a child process that saves its state every 3
   steps and SIGKILLs itself after step 7 (one step past the last save);
3. resume from the surviving state file and require the final embedding
   tables and loss trace to be bit-identical to the reference.

Because the training-state file is written atomically (temp + fsync +
``os.replace``), the kill can land at any instant without leaving a torn
state behind. A second pass checks exactly that:

4. a child overwrites a checkpoint and a training state of a ~2M-parameter
   model back to back (each save takes several ms), and the parent
   SIGKILLs it at seeded random delays until three kills have landed
   mid-save (at most 30 kills);
5. after every kill both files must load, pass hash verification, and
   hold one complete generation of the child's content — the previous
   save or the new one, never a mix.

Standalone, no test harness::

    PYTHONPATH=src python tools/resume_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

EPOCHS = 4
KILL_AT_STEP = 7
SAVE_EVERY = 3
#: kill the saving child until this many kills landed mid-save ...
MID_SAVE_KILLS = 3
#: ... or give up after this many kills
MAX_SAVE_KILLS = 30


def build():
    from repro.core import GNMR, GNMRConfig
    from repro.data import leave_one_out_split, taobao_like

    split = leave_one_out_split(taobao_like(num_users=40, num_items=90,
                                            seed=0))
    model = GNMR(split.train, GNMRConfig(pretrain=False, seed=0,
                                         num_layers=2, dropout=0.0,
                                         shards=2, shard_strategy="range"))
    return model, split


def config(save_state=None):
    from repro.train import TrainConfig

    return TrainConfig(epochs=EPOCHS, steps_per_epoch=4, batch_users=8,
                       per_user=2, propagation="sampled", fanout=5, seed=0,
                       optimizer="adam", shards=2, save_state=save_state,
                       save_every_steps=SAVE_EVERY if save_state else None)


def child(state_path: str) -> int:
    """Train with periodic saves and SIGKILL ourselves mid-epoch."""
    from repro.train import Trainer

    model, split = build()

    def kill_hook(trainer, global_step):
        if global_step == KILL_AT_STEP:
            os.kill(os.getpid(), signal.SIGKILL)

    Trainer(model, split.train, config(state_path),
            step_hook=kill_hook).run()
    return 1  # unreachable unless the kill never fired


def main() -> int:
    from repro.shard import table_array
    from repro.train import Trainer
    from repro.train.resume import load_training_state

    state_path = "/tmp/resume_smoke_state.npz"
    if os.path.exists(state_path):
        os.unlink(state_path)

    reference, split = build()
    ref_losses = Trainer(reference, split.train, config()).run().series("loss")

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", state_path],
        env=dict(os.environ, PYTHONPATH="src"), cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    if proc.returncode != -signal.SIGKILL:
        print(f"child exited {proc.returncode}, expected SIGKILL "
              f"({-signal.SIGKILL})")
        return 1
    saved = load_training_state(state_path)
    expected_step = (KILL_AT_STEP // SAVE_EVERY) * SAVE_EVERY
    if saved.global_step != expected_step:
        print(f"state saved at step {saved.global_step}, "
              f"expected {expected_step}")
        return 1

    resumed, _ = build()
    losses = Trainer(resumed, split.train, config()).run(
        resume_from=state_path).series("loss")

    loss_ok = losses == ref_losses
    users_ok = bool(np.array_equal(table_array(resumed.user_embeddings),
                                   table_array(reference.user_embeddings)))
    items_ok = bool(np.array_equal(table_array(resumed.item_embeddings),
                                   table_array(reference.item_embeddings)))
    print(json.dumps({"killed_at_step": KILL_AT_STEP,
                      "resumed_from_step": saved.global_step,
                      "loss_trace_identical": loss_ok,
                      "user_tables_bit_equal": users_ok,
                      "item_tables_bit_equal": items_ok}))
    if loss_ok and users_ok and items_ok:
        print("resume smoke OK: SIGKILL mid-epoch, resumed run bit-matches")
        return save_kill_smoke()
    print("resume smoke FAILED")
    return 1


def generation(model, gen: int) -> dict[str, np.ndarray]:
    """Parameter content of save number ``gen`` (cheap to build, so the
    child spends most of its time saving; a mix of two saves would show
    two values)."""
    return {name: np.full(value.shape, float(gen))
            for name, value in model.state_dict().items()}


def big_model():
    from repro.nn import MLP

    return MLP([1024, 1024, 1024], rng=np.random.default_rng(0))


def save_loop(folder: str, first_gen: int) -> int:
    """Overwrite a checkpoint and a training state until killed."""
    from repro.train.resume import save_training_state
    from repro.utils import save_checkpoint

    model = big_model()
    gen = first_gen
    while True:
        model.load_state_dict(generation(model, gen))
        save_checkpoint(model, f"{folder}/ckpt.npz",
                        metadata={"generation": gen})
        state = model.state_dict()
        save_training_state(f"{folder}/state.npz", state,
                            {name: {"m": -value}
                             for name, value in state.items()},
                            {"generation": gen})
        if gen == first_gen:
            print("ready", flush=True)
        gen += 1


def save_kill_smoke() -> int:
    """SIGKILL a saving child at seeded delays; both files stay whole.

    A kill landed mid-save when it left the writer's temp file behind.
    """
    from repro.train.resume import load_training_state
    from repro.utils import load_arrays

    model = big_model()
    rng = random.Random(0)
    mid_save = kills = 0
    with tempfile.TemporaryDirectory() as folder:
        while mid_save < MID_SAVE_KILLS and kills < MAX_SAVE_KILLS:
            first_gen = 1000 * kills
            kills += 1
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--save-loop",
                 folder, str(first_gen)],
                stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH="src"),
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(
                    __file__))))
            if proc.stdout.readline().strip() != "ready":
                proc.kill()
                print("save-loop child never became ready")
                return 1
            time.sleep(rng.uniform(0.005, 0.25))
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
            temps = [p for p in Path(folder).iterdir()
                     if p.suffix == ".tmp"]
            mid_save += bool(temps)
            for temp in temps:
                temp.unlink()
            arrays, meta = load_arrays(f"{folder}/ckpt.npz")
            state = load_training_state(f"{folder}/state.npz")
            for label, content, gen in (
                    ("checkpoint", arrays, meta["generation"]),
                    ("state", state.model_state, state.meta["generation"])):
                expected = generation(model, gen)
                whole = gen >= first_gen and sorted(content) == sorted(
                    expected) and all(np.array_equal(content[name], value)
                                      for name, value in expected.items())
                if not whole:
                    print(f"kill {kills}: {label} is not one complete "
                          f"generation (recorded {gen})")
                    return 1
    print(json.dumps({"save_kills": kills, "kills_mid_save": mid_save}))
    if mid_save < MID_SAVE_KILLS:
        print(f"save-kill smoke FAILED: only {mid_save} of {kills} kills "
              "landed during a save")
        return 1
    print("save-kill smoke OK: every SIGKILL left whole, verified files")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        sys.exit(child(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "--save-loop":
        sys.exit(save_loop(sys.argv[2], int(sys.argv[3])))
    sys.exit(main())

"""Atomic full-round-state snapshots for crash-tolerant restarts.

Algorithm 1 carries each worker's momentum and Algorithm 3 its score
list from round to round, so only the whole round state resumes the
protocol.  :class:`RoundState` captures everything that evolves across
rounds -- the flat parameters, both pools' momentum matrices, every
generator's bit-generator state (worker streams, server stream, attack
stream), the defense rule's cross-round state and the straggler buffer
-- so a coordinator killed between rounds restores the exact process
state and finishes with a final model **bitwise equal** to an
uninterrupted run.

Snapshots are written atomically (temp file + ``os.replace`` after an
``fsync``), so a crash mid-write can never leave a torn
``round_<i>.state.npz`` behind: the file either is the previous complete
snapshot or the new complete one.  The file is a standard ``.npz``
archive: the large numeric payloads are arrays, the structured metadata
(round index, generator states, shapes) rides as one UTF-8 JSON blob.

A snapshot also records the client DP settings and the server learning
rate of the run that wrote it: the momentum and generator streams it
holds replay only under those, so a restore refuses a run with other
ones, and a restored pool takes its batch size from them.  A cohort
sampler's plan is keyed by the round index, so population mode adds
nothing.  The format is version 3; older files are refused.
Capture/restore lives on :class:`~repro.federated.simulation
.FederatedSimulation` (:meth:`capture_round_state` /
:meth:`restore_round_state`); this module owns the container and the
file format.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.config import DPConfig

__all__ = [
    "STATE_SUFFIX",
    "RoundState",
    "latest_snapshot",
    "load_round_state",
    "save_round_state",
    "snapshot_name",
]

#: File-name suffix of full-state snapshots (``round_<i>.state.npz``).
STATE_SUFFIX = ".state.npz"

_SNAPSHOT_NAME = re.compile(r"round_(\d+)" + re.escape(STATE_SUFFIX))

_FORMAT_VERSION = 3


@dataclass
class RoundState:
    """Complete evolving state of a simulation after one finished round.

    Attributes
    ----------
    round_index:
        The 0-based round this state was captured *after*; a restore
        resumes at ``round_index + 1``.
    parameters:
        Flat global model parameters, shape ``(d,)``.
    server_rng, attack_rng:
        ``bit_generator.state`` dicts of the server and attacker streams.
    honest_momentum, honest_rngs:
        The honest pool's ``(n_honest, d)`` slot momentum and its
        per-worker generator states.
    dp_config, learning_rate:
        The client DP settings and the server learning rate of the run
        that wrote the snapshot.
    byzantine_momentum, byzantine_rngs:
        Same for the protocol-following Byzantine pool; ``None`` when the
        attack crafts uploads instead of running the protocol.
    pending:
        The straggler buffer awaiting next-round delivery --
        ``(worker_ids, upload_rows)`` -- or ``None``.
    aggregator_state:
        The defense rule's cross-round state as returned by
        :meth:`~repro.defenses.base.Aggregator.state_dict` (e.g. the
        two-stage protocol's accumulated score list); ``None``/``{}``
        for stateless rules.
    """

    round_index: int
    parameters: np.ndarray
    server_rng: dict
    attack_rng: dict
    honest_momentum: np.ndarray
    honest_rngs: list[dict]
    dp_config: DPConfig
    learning_rate: float
    byzantine_momentum: np.ndarray | None = None
    byzantine_rngs: list[dict] | None = None
    pending: tuple[np.ndarray, np.ndarray] | None = None
    aggregator_state: dict[str, np.ndarray] | None = None


def snapshot_name(round_index: int) -> str:
    """The file name of the snapshot taken after round ``round_index``."""
    return f"round_{int(round_index)}{STATE_SUFFIX}"


def latest_snapshot(directory: str | Path) -> Path | None:
    """The snapshot of the latest round in ``directory``, or ``None``.

    Only files named like :func:`snapshot_name` count, and their round
    indices compare as numbers (``round_10`` is later than ``round_9``).
    A missing directory holds no snapshot.
    """
    rounds = [
        (int(match.group(1)), entry)
        for entry in Path(directory).glob(f"round_*{STATE_SUFFIX}")
        if (match := _SNAPSHOT_NAME.fullmatch(entry.name))
    ]
    return max(rounds)[1] if rounds else None


def save_round_state(state: RoundState, path: str | Path) -> Path:
    """Write ``state`` to ``path`` atomically; returns the final path.

    The archive appears under its final name only after its bytes are
    durably on disk (``fsync`` + ``os.replace``), so a reader never
    observes a torn snapshot -- the write-temp-then-rename discipline the
    restart path relies on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": _FORMAT_VERSION,
        "round_index": int(state.round_index),
        "server_rng": state.server_rng,
        "attack_rng": state.attack_rng,
        "honest_rngs": state.honest_rngs,
        "dp_config": asdict(state.dp_config),
        "learning_rate": float(state.learning_rate),
        "byzantine_rngs": state.byzantine_rngs,
        "has_byzantine": state.byzantine_momentum is not None,
        "has_pending": state.pending is not None,
        "aggregator_keys": sorted(state.aggregator_state or {}),
    }
    arrays: dict[str, np.ndarray] = {
        "parameters": np.asarray(state.parameters, dtype=np.float64),
        "honest_momentum": np.asarray(state.honest_momentum, dtype=np.float64),
        "meta": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
    }
    if state.byzantine_momentum is not None:
        arrays["byzantine_momentum"] = np.asarray(
            state.byzantine_momentum, dtype=np.float64
        )
    if state.pending is not None:
        pending_ids, pending_rows = state.pending
        arrays["pending_ids"] = np.asarray(pending_ids, dtype=np.int64)
        arrays["pending_rows"] = np.asarray(pending_rows, dtype=np.float64)
    for key in meta["aggregator_keys"]:
        arrays[f"agg__{key}"] = np.asarray(state.aggregator_state[key])
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write; never leave the temp behind
            tmp.unlink()
    return path


def load_round_state(path: str | Path) -> RoundState:
    """Read a snapshot written by :func:`save_round_state`.

    A file that is not one -- truncated, not an ``.npz`` archive, an
    archive without the snapshot's entries, or another format version --
    raises ``ValueError`` naming the file; a missing file raises
    ``OSError``.
    """
    path = Path(path)
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with archive:
            return _read_state(archive)
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as error:
        raise ValueError(
            f"{path} is not a round-state snapshot: {error}"
        ) from error


def _read_state(archive: np.lib.npyio.NpzFile) -> RoundState:
    """The :class:`RoundState` stored in an open snapshot archive."""
    meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported round-state format version {version!r}")
    pending = None
    if meta["has_pending"]:
        pending = (
            np.array(archive["pending_ids"]),
            np.array(archive["pending_rows"]),
        )
    aggregator_state = {
        key: np.array(archive[f"agg__{key}"])
        for key in meta["aggregator_keys"]
    } or None
    return RoundState(
        round_index=int(meta["round_index"]),
        parameters=np.array(archive["parameters"]),
        server_rng=meta["server_rng"],
        attack_rng=meta["attack_rng"],
        honest_momentum=np.array(archive["honest_momentum"]),
        honest_rngs=meta["honest_rngs"],
        dp_config=DPConfig(**meta["dp_config"]),
        learning_rate=float(meta["learning_rate"]),
        byzantine_momentum=(
            np.array(archive["byzantine_momentum"])
            if meta["has_byzantine"] else None
        ),
        byzantine_rngs=meta["byzantine_rngs"],
        pending=pending,
        aggregator_state=aggregator_state,
    )

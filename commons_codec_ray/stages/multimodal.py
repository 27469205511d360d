"""Multimodal column stages: opaque ``binary`` payloads + typed metadata.

Images / audio / video are carried as Arrow ``binary`` columns next to
typed metadata columns; decode / feature-extraction / resize /
frame-sample run as actor-pool ``map_batches`` stages (codec state built
once per actor in ``__init__``).

The sandbox has no image/audio LIBRARIES, but the decode steps are
real: ``ImageDecodeStage`` defaults to the pure-Python PPM/PGM/BMP
codec (``decode/image_codec.py``), ``AudioWindowStage`` reads int16-LE
PCM, and ``DeterministicStubCodec`` remains the seeded-deterministic
feature extractor whose output the SQL oracle can re-derive. Pillow /
torchvision / ffmpeg plug into the same ``decode_fn`` slots for
JPEG/PNG/video outside the sandbox.

Scale notes: binary payloads are large — these stages should run with a
SMALL ``batch_size`` (32–256) and ``batch_format="pyarrow"`` (binary
round-trips pandas badly), and the surrounding pipeline should prune the
payload column as early as possible (`select_columns` after feature
extraction) so multi-MB blobs don't ride through later shuffles.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MULTIMODAL_SCHEMA = pa.schema(
    [
        pa.field("item_id", pa.int64()),
        pa.field("modality", pa.string()),  # image | audio | video
        pa.field("mime", pa.string()),
        pa.field("payload", pa.binary()),
        pa.field("width", pa.int32()),  # typed metadata (nullable per modality)
        pa.field("height", pa.int32()),
        pa.field("duration_ms", pa.int32()),
    ]
)


class ImageDecodeStage:
    """Decode image bytes → pixel arrays.

    Defaults to the pure-Python PPM/PGM/BMP codec
    (``decode/image_codec.py`` — public netpbm/BMP specs), so the image
    path runs REAL decode end-to-end in-sandbox; a deployment passes
    ``decode_fn`` (e.g. ``PIL.Image.open`` + ``np.asarray``) for
    JPEG/PNG. Emits flat pixel bytes + a shape column so the (often
    ragged) arrays ride Arrow binary, not Python objects.
    """

    def __init__(self, decode_fn=None):
        if decode_fn is None:
            from commons_codec_ray.decode.image_codec import decode_image

            decode_fn = decode_image
        self.decode_fn = decode_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        arrays = [self.decode_fn(p.as_py()) for p in batch["payload"]]
        shapes = pa.array([list(a.shape) for a in arrays], type=pa.list_(pa.int32()))
        flat = pa.array([a.ravel().tobytes() for a in arrays], type=pa.binary())
        return batch.drop_columns(["payload"]).append_column("pixels", flat).append_column(
            "shape", shapes
        )


class DeterministicStubCodec:
    """Deterministic fake decode/feature-extract for tests and plumbing.

    Features = seeded hash-derived float vector per payload; "resize"
    metadata computed arithmetically. Output layout matches what a real
    feature extractor would produce (fixed-width ``list<float>``).
    """

    def __init__(self, feature_dim: int = 16, target: tuple[int, int] = (224, 224)):
        self.feature_dim = feature_dim
        self.target = target

    def _features(self, payload: bytes) -> np.ndarray:
        digest = hashlib.sha256(payload or b"").digest()
        raw = np.frombuffer((digest * ((self.feature_dim * 4) // len(digest) + 1))[: self.feature_dim * 4], dtype=np.uint32)
        return (raw.astype(np.float64) / np.iinfo(np.uint32).max).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = [p.as_py() for p in batch["payload"]]
        feats = [self._features(p) for p in payloads]
        # feat_crc: first 4 digest bytes as big-endian int — the basis of
        # the feature vector, re-derivable by the SQL oracle via sha256()
        crcs = [
            int.from_bytes(hashlib.sha256(p or b"").digest()[:4], "big") for p in payloads
        ]
        tw, th = self.target
        out = batch.drop_columns(["payload"])  # prune blobs before any shuffle
        out = out.append_column(
            "features", pa.array([f.tolist() for f in feats], type=pa.list_(pa.float32()))
        )
        out = out.append_column("feat_crc", pa.array(crcs, type=pa.int64()))
        out = out.append_column(
            "resized_w", pa.array(np.full(batch.num_rows, tw, dtype=np.int32))
        )
        out = out.append_column(
            "resized_h", pa.array(np.full(batch.num_rows, th, dtype=np.int32))
        )
        return out


class FrameSampleStage:
    """Video frame sampling: one output row per sampled frame at a fixed
    interval (0, interval, 2·interval, … < duration_ms) — the
    explode-shaped multimodal stage (vs. DeterministicStubCodec's 1:1
    feature map). Runs as an actor-pool ``map_batches`` stage with small
    batches for the same blob-size reasons.

    Real-codec slot: supply ``extract_frame_fn(payload: bytes, ms: int)
    -> bytes`` (e.g. an ffmpeg seek+decode) to emit a ``frame`` binary
    column. Without it the stage emits only the deterministic
    ``frame_crc`` = first 4 bytes of sha256(payload ‖ '#' ‖ ms) — the
    SQL-re-derivable identity the driver oracle checks — so the
    plumbing (explode arithmetic, schema, actor signature) is fully
    exercised in-sandbox.
    """

    def __init__(self, frame_interval_ms: int = 200, extract_frame_fn=None):
        self.interval = int(frame_interval_ms)
        self.extract_frame_fn = extract_frame_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["item_id"].to_numpy(zero_copy_only=False)
        durs = batch["duration_ms"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = [p.as_py() for p in batch["payload"]]
        n_frames = np.maximum((durs + self.interval - 1) // self.interval, 0)
        total = int(n_frames.sum())
        rep_ids = np.repeat(ids, n_frames)
        # per-row arange explode: global index minus each row's start
        starts = np.cumsum(n_frames) - n_frames
        frame_ms = (np.arange(total) - np.repeat(starts, n_frames)) * self.interval
        rep_payload = np.repeat(np.arange(len(ids)), n_frames)
        crcs = [
            int.from_bytes(
                hashlib.sha256(
                    (payloads[j] or b"") + b"#" + str(int(ms)).encode()
                ).digest()[:4],
                "big",
            )
            for j, ms in zip(rep_payload, frame_ms)
        ]
        out = pa.table(
            {
                "item_id": pa.array(rep_ids, pa.int64()),
                "frame_ms": pa.array(frame_ms.astype(np.int32), pa.int32()),
                "frame_crc": pa.array(crcs, pa.int64()),
            }
        )
        if self.extract_frame_fn is not None:
            frames = [
                self.extract_frame_fn(payloads[j], int(ms))
                for j, ms in zip(rep_payload, frame_ms)
            ]
            out = out.append_column("frame", pa.array(frames, pa.binary()))
        return out


def frame_sample(ds, frame_interval_ms: int = 200, concurrency: int = 2, batch_size: int = 128):
    """Actor-pool frame sampling over the video rows of a multimodal
    Dataset (payloads pruned from the output by construction)."""
    import pyarrow.compute as pc

    from commons_codec_ray.util import pool_size

    videos = ds.map_batches(
        lambda t: t.filter(pc.equal(t["modality"], "video")),
        batch_format="pyarrow",
    )
    return videos.map_batches(
        FrameSampleStage,
        fn_constructor_kwargs={"frame_interval_ms": frame_interval_ms},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, pool_size(concurrency)),
    )


class AudioWindowStage:
    """Audio windowing: decode a raw-PCM binary payload (int16 LE) and
    explode it into fixed-length analysis windows with an exact integer
    energy (sum of squared samples) per window — the audio analog of
    FrameSampleStage. Actor-pool ``map_batches`` stage; the decode is
    ``np.frombuffer`` (zero-copy off the Arrow binary buffer), so the
    plumbing — binary column in, per-window explode out, vectorized
    per-doc math — is fully real; swap ``decode_fn(payload) ->
    np.int16[:]`` for an actual codec (soundfile/ffmpeg) outside the
    sandbox."""

    def __init__(self, window: int = 400, decode_fn=None):
        self.window = int(window)
        self.decode_fn = decode_fn or (
            lambda payload: np.frombuffer(payload, dtype="<i2")
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_ids, out_w, out_e = [], [], []
        for i, p in enumerate(batch["payload"]):
            samples = self.decode_fn(p.as_py()).astype(np.int64)
            n_win = len(samples) // self.window
            if not n_win:
                continue
            mat = samples[: n_win * self.window].reshape(n_win, self.window)
            out_ids.append(np.full(n_win, ids[i], np.int64))
            out_w.append(np.arange(n_win, dtype=np.int64))
            out_e.append((mat * mat).sum(axis=1))
        if not out_ids:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "widx": pa.array([], pa.int64()),
                 "energy": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_ids)),
                "widx": pa.array(np.concatenate(out_w)),
                "energy": pa.array(np.concatenate(out_e)),
            }
        )


def synthesize_multimodal_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic fake multimodal rows for tests (no external data).

    Payloads are utf-8 of ``repeat('payload-' || zero-padded item_id,
    1 + i % 5)`` — variable-length, deterministic, AND re-derivable in
    plain SQL, so the driver oracle can verify the sha256-derived
    ``feat_crc`` end-to-end (``seed`` kept for signature compatibility).
    """
    payloads = [(f"payload-{i:08d}" * (1 + i % 5)).encode("utf-8") for i in range(n)]
    modality = [("image", "audio", "video")[i % 3] for i in range(n)]
    mime = {"image": "image/png", "audio": "audio/wav", "video": "video/mp4"}
    return pa.table(
        {
            "item_id": pa.array(np.arange(n, dtype=np.int64)),
            "modality": pa.array(modality),
            "mime": pa.array([mime[m] for m in modality]),
            "payload": pa.array(payloads, type=pa.binary()),
            "width": pa.array([64 if m == "image" else None for m in modality], pa.int32()),
            "height": pa.array([48 if m == "image" else None for m in modality], pa.int32()),
            "duration_ms": pa.array(
                [1000 if m != "image" else None for m in modality], pa.int32()
            ),
        },
        schema=MULTIMODAL_SCHEMA,
    )


def feature_extract(ds, feature_dim: int = 16, concurrency: int = 2, batch_size: int = 128):
    """Actor-pool feature extraction over a multimodal Dataset."""
    from commons_codec_ray.util import pool_size

    return ds.map_batches(
        DeterministicStubCodec,
        fn_constructor_kwargs={"feature_dim": feature_dim},
        batch_format="pyarrow",
        batch_size=batch_size,  # small: payloads are large binaries
        concurrency=(1, pool_size(concurrency)),
    )

"""Text-analysis stages for a training-data pipeline over the lake.

All stages are vectorized per batch (pyarrow.compute / numpy); the
language-ID and quality scorers are callable CLASSES so their tables
(stopword sets, n-gram profiles, compiled regexes) are built once per
actor, not once per batch.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# number of \S+ runs == len(text.split()) for any whitespace
_TOKEN_RUN = r"\S+"

# GPT-2-style pre-tokenizer, restricted to RE2 syntax (no lookahead) so the
# SAME pattern runs in Arrow's count_substring_regex AND DuckDB's
# regexp_extract_all (both RE2) — byte-identical counts by construction.
BPE_PRETOKEN_RE = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"


def token_count(batch: pa.Table, column: str = "text", out: str = "n_tokens") -> pa.Table:
    n = pc.count_substring_regex(batch[column], _TOKEN_RUN)
    return batch.append_column(out, n.cast(pa.int64()))


def bpe_token_count(batch: pa.Table, column: str = "text", out: str = "n_bpe_tokens") -> pa.Table:
    """Approximate BPE token count: number of pre-tokenizer matches (each
    pre-token maps to ≥1 BPE token; this is the standard cheap proxy)."""
    n = pc.count_substring_regex(batch[column], BPE_PRETOKEN_RE)
    return batch.append_column(out, n.cast(pa.int64()))


class QualityScorer:
    """Heuristic document quality: length, punctuation/stopword/digit
    ratios, mean token length — the usual cheap pre-training filters."""

    STOPWORDS = frozenset(
        "the a an and or of to in is are was were be been it this that for on with as at by".split()
    )

    def __init__(self):
        self.word_re = re.compile(r"[a-zA-Z]+")
        self.punct_re = re.compile(r"[^\w\s]")
        self.digit_re = re.compile(r"\d")

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        stop_ratio = np.zeros(n)
        mean_tok_len = np.zeros(n)
        punct_ratio = np.zeros(n)
        digit_ratio = np.zeros(n)
        for i, t in enumerate(texts):
            t = t or ""
            toks = t.split()
            if toks:
                mean_tok_len[i] = sum(map(len, toks)) / len(toks)
                low = [w.lower() for w in toks]
                stop_ratio[i] = sum(w in self.STOPWORDS for w in low) / len(toks)
            if t:
                punct_ratio[i] = len(self.punct_re.findall(t)) / len(t)
                digit_ratio[i] = len(self.digit_re.findall(t)) / len(t)
        score = (
            0.4 * np.clip(stop_ratio * 4.0, 0, 1)
            + 0.3 * np.clip(mean_tok_len / 8.0, 0, 1)
            + 0.3 * (1.0 - np.clip(punct_ratio * 5.0, 0, 1))
        )
        out = batch
        for name, arr in (
            ("stop_ratio", stop_ratio),
            ("mean_tok_len", mean_tok_len),
            ("punct_ratio", punct_ratio),
            ("digit_ratio", digit_ratio),
            ("quality", score),
        ):
            out = out.append_column(name, pa.array(np.round(arr, 6)))
        return out


class LangId:
    """Character-n-gram language ID (en/fr/es/de/zh heuristic).

    Profiles are tiny hand-rolled marker sets — no external models in the
    sandbox. Built once per actor; batch work is a short Python loop over
    documents with set intersections (cheap vs. the text sizes).
    """

    MARKERS = {
        "en": {" the ", " and ", " of ", " to ", " is ", " that ", " it "},
        "fr": {" le ", " la ", " les ", " de ", " et ", " un ", " est ", " que "},
        "es": {" el ", " los ", " de ", " y ", " que ", " en ", " una ", " es "},
        "de": {" der ", " die ", " und ", " das ", " ist ", " ein ", " nicht "},
    }

    def __init__(self):
        self.markers = {k: tuple(v) for k, v in self.MARKERS.items()}

    def classify(self, text: str) -> str:
        if not text:
            return "unknown"
        # CJK codepoints → zh
        cjk = sum(1 for ch in text[:200] if "一" <= ch <= "鿿")
        if cjk > 2:
            return "zh"
        padded = f" {text.lower()} "
        best, best_score = "unknown", 0
        for lang, marks in self.markers.items():
            score = sum(padded.count(m) for m in marks)
            if score > best_score:
                best, best_score = lang, score
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = [self.classify(t) for t in batch["text"].to_pylist()]
        return batch.append_column("lang_pred", pa.array(langs, type=pa.string()))


class Fingerprinter:
    """Rolling-hash document fingerprint (winnowing-style).

    Deterministic 64-bit fingerprint: min-sampled rolling hashes over a
    sliding character window — robust to small local edits, usable as a
    cheap near-dup pre-filter key.
    """

    def __init__(self, window: int = 16, keep: int = 4):
        self.window = window
        self.keep = keep

    def fingerprint(self, text: str) -> int:
        data = (text or "").encode("utf-8")
        w = self.window
        if len(data) <= w:
            return zlib.crc32(data)
        # vectorized rolling polynomial hash. Modulus 2^55-55 (prime) so
        # acc*257 + byte < 2^63 never wraps uint64 — with a larger modulus
        # the product silently wraps before the %, and the hash is no
        # longer the intended mod-p polynomial family.
        arr = np.frombuffer(data, dtype=np.uint8)
        base = np.uint64(257)
        mod = np.uint64((1 << 55) - 55)
        n = len(arr)
        # strided recompute (w small) — vectorized across positions
        acc = np.zeros(n - w + 1, dtype=np.uint64)
        for j in range(w):
            acc = (acc * base + arr[j : n - w + 1 + j].astype(np.uint64)) % mod
        h = acc
        smallest = np.sort(h)[: self.keep]
        return int(zlib.crc32(smallest.tobytes()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = np.fromiter(
            (self.fingerprint(t) for t in batch["text"].to_pylist()),
            dtype=np.int64,
            count=batch.num_rows,
        )
        return batch.append_column("fingerprint", pa.array(fps))


def top_bigrams(ds, column: str = "text", k: int = 30, num_buckets: int | None = None):
    """Exact global top-k token bigrams by count (phrase-mining /
    collocation primer; engine-added). Tokenization is a single-space
    split, matching ``string_split(text, ' ')``.

    Scale shape: bigram strings are built VECTORIZED from the Arrow
    split offsets (one boolean mask drops each document's last token;
    pandas C-level concat joins the shifted views), counted within the
    batch (combiner), and only distinct (bigram, count) partials enter
    the ONE hash-bucketed exchange.  Each bucket owns its bigrams
    completely, so a per-bucket top-k is exact; the driver merges
    bucket winners (≤ buckets·k rows).  Ties break (count desc, bigram
    asc) on both sides.
    """
    import pandas as pd

    from commons_codec_ray.util import adaptive_buckets

    num_buckets = num_buckets or adaptive_buckets()

    def partial(t: pa.Table) -> pa.Table:
        col = t[column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        la = pc.split_pattern(col, pattern=" ")
        offsets = la.offsets.to_numpy().astype(np.int64)
        toks = la.flatten().to_numpy(zero_copy_only=False)
        left = np.ones(len(toks), dtype=bool)
        left[offsets[1:] - 1] = False  # each document's last token
        ls = pd.Series(toks[left])
        rs = pd.Series(toks[np.flatnonzero(left) + 1])
        counts = (ls + " " + rs.values).value_counts()
        bgs = counts.index.to_numpy()
        h = pd.util.hash_array(bgs.astype(object)) & np.uint64(num_buckets - 1)
        return pa.table(
            {
                "_gb": pa.array(h.astype(np.int64)),
                "bg": pa.array(bgs, pa.string()),
                "c": pa.array(counts.to_numpy(np.int64), pa.int64()),
            }
        )

    def bucket_topk(t: pa.Table) -> pa.Table:
        # Arrow-native group body (was pandas): hash-aggregate in Arrow,
        # then one numpy lexsort for the (count desc, bigram asc) top-k
        tot = t.select(["bg", "c"]).group_by("bg").aggregate([("c", "sum")])
        bg = tot["bg"].to_numpy(zero_copy_only=False)
        c = tot["c_sum"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bg, -c))[:k]
        return pa.table(
            {"bg": pa.array(bg[order], pa.string()), "c": pa.array(c[order], pa.int64())}
        )

    winners = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_gb")
        .map_groups(bucket_topk, batch_format="pyarrow")
        .to_pandas()
    )
    final = winners.sort_values(["c", "bg"], ascending=[False, True]).head(k)
    return pa.table(
        {
            "bg": pa.array(final["bg"].to_numpy(), pa.string()),
            "c": pa.array(final["c"].to_numpy(np.int64), pa.int64()),
        }
    )


_NORM_STRIP_RE = "[^a-z0-9 ]"
_NORM_SQUEEZE_RE = " +"


def normalize_text(batch: pa.Table, column: str = "text", out: str = "norm") -> pa.Table:
    """Canonical text normalization for dedup/fingerprint pre-passes:
    lowercase, non-alphanumerics → space, squeeze runs, trim. Pure
    zero-copy Arrow RE2 kernels, so DuckDB's ``regexp_replace(..., 'g')``
    (also RE2) produces byte-identical strings."""
    s = pc.utf8_lower(batch[column])
    s = pc.replace_substring_regex(s, pattern=_NORM_STRIP_RE, replacement=" ")
    s = pc.replace_substring_regex(s, pattern=_NORM_SQUEEZE_RE, replacement=" ")
    return batch.append_column(out, pc.utf8_trim(s, characters=" "))


def _bpe_spaced(text: str | None) -> str:
    """text → the spaced symbol form ' c1 c2 … | d1 d2 … | ' the SQL
    oracle mirrors (word split on the single space character, empties
    filtered — EXACTLY DuckDB ``string_split(text, ' ')`` + filter)."""
    syms: list[str] = []
    for w in (text or "").split(" "):
        if w:
            syms.extend(w)
            syms.append("|")
    return " " + " ".join(syms) + " "


def _bpe_apply(s: str, pairs) -> str:
    """Apply merge rules as plain left-to-right non-overlapping
    replaces — the shared Python/DuckDB ``replace`` semantics."""
    for l, r in pairs:
        s = s.replace(f" {l} {r} ", f" {l}{r} ")
    return s


def _bpe_symbols(s: str) -> list[str]:
    """Symbol sequence of a spaced string: split on the single space
    character and drop empties — EXACTLY DuckDB ``string_split(s, ' ')``
    + ``list_filter(x <> '')``. NOT ``str.split()``: any-whitespace
    splitting would silently swallow tab/newline/unicode-space symbols
    the oracle keeps."""
    return [x for x in s.split(" ") if x]


def bpe_train(ds, merges: int = 4, column: str = "text"):
    """Distributed BPE merge-table training (Sennrich et al. 2016, the
    public byte-pair-encoding tokenizer-training algorithm): learn the
    top ``merges`` merge rules over the corpus.

    Representation: each document becomes a SPACED symbol string
    (' c1 c2 … | d1 d2 … | ' — characters separated by spaces, a '|'
    boundary symbol between words that never participates in a pair),
    and a merge (l, r) is applied as the plain non-overlapping
    left-to-right replacement ``' l r ' → ' lr '`` — exactly the
    semantics of both Python ``str.replace`` and DuckDB ``replace``,
    which is what lets an unrolled-CTE SQL oracle replay training
    bit-for-bit (including the under-merge of immediately repeated
    pairs that left-to-right consumption implies).

    Scale shape: each merge iteration is ONE linear ``map_batches``
    pass; a batch emits its local (l, r, count) pair table — bounded
    by the observed symbol-pair vocabulary, kilobytes — and the driver
    reduces partials and argmaxes with a deterministic tie-break
    (count desc, then lexicographic l, r). Nothing is ever shuffled;
    M merges = M linear passes, the canonical count-then-merge shape
    tokenizer training has at any corpus size. Returns a pyarrow
    Table ``(rank, l, r, pair_count)``.
    """
    applied: list[tuple[str, str]] = []
    result = []
    for rank in range(1, merges + 1):
        cur = tuple(applied)

        def partial(t: pa.Table, _m=cur) -> pa.Table:
            from collections import Counter

            c: Counter = Counter()
            for text in t[column].to_pylist():
                toks = _bpe_symbols(_bpe_apply(_bpe_spaced(text), _m))
                c.update(
                    (a, b)
                    for a, b in zip(toks, toks[1:])
                    if a != "|" and b != "|"
                )
            if not c:
                return pa.table(
                    {
                        "l": pa.array([], pa.string()),
                        "r": pa.array([], pa.string()),
                        "cnt": pa.array([], pa.int64()),
                    }
                )
            ks = list(c.keys())
            return pa.table(
                {
                    "l": pa.array([k[0] for k in ks], pa.string()),
                    "r": pa.array([k[1] for k in ks], pa.string()),
                    "cnt": pa.array([c[k] for k in ks], pa.int64()),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        if not len(parts):
            break
        agg = parts.groupby(["l", "r"], as_index=False)["cnt"].sum()
        agg = agg.sort_values(
            ["cnt", "l", "r"], ascending=[False, True, True], kind="mergesort"
        )
        top = agg.iloc[0]
        applied.append((str(top["l"]), str(top["r"])))
        result.append((rank, str(top["l"]), str(top["r"]), int(top["cnt"])))

    return pa.table(
        {
            "rank": pa.array([x[0] for x in result], pa.int64()),
            "l": pa.array([x[1] for x in result], pa.string()),
            "r": pa.array([x[2] for x in result], pa.string()),
            "pair_count": pa.array([x[3] for x in result], pa.int64()),
        }
    )


def bpe_segment(ds, merges: int = 4, column: str = "text", id_column: str = "doc_id"):
    """Train the BPE merge table (:func:`bpe_train`) then apply it back
    to the corpus in ONE more linear pass, returning each document's
    subword token count ``(doc_id, n_tokens)`` — the train→apply
    composition a tokenizer pipeline runs before sequence packing."""
    rules = bpe_train(ds, merges=merges, column=column)
    pairs = tuple(zip(rules["l"].to_pylist(), rules["r"].to_pylist()))

    def count_tokens(t: pa.Table, _m=pairs) -> pa.Table:
        ids = t[id_column]
        out = np.empty(t.num_rows, np.int64)
        for i, text in enumerate(t[column].to_pylist()):
            syms = _bpe_symbols(_bpe_apply(_bpe_spaced(text), _m))
            out[i] = sum(1 for x in syms if x != "|")
        return pa.table({id_column: ids, "n_tokens": pa.array(out, pa.int64())})

    return ds.map_batches(count_tokens, batch_format="pyarrow")


class GopherSignals:
    """Gopher-style repetition/quality gates (Rae et al. 2021, "Scaling
    Language Models: ... Gopher", appendix A1.1 — the published rule
    family: word-count bounds, stop-word presence, fraction of text in
    the most common 2-gram, fraction of duplicated n-grams). All
    signals are EXACT integers (counts and floor-divided ppm ratios) so
    a SQL oracle reproduces them bit-for-bit; thresholds are adapted to
    the synthetic corpus so the keep flag actually discriminates.

    Emitted per document: ``n_words`` (single-space split, matching
    DuckDB ``string_split(text, ' ')``), ``uniq_words``,
    ``top_bigram_count`` (occurrences of the most frequent adjacent
    word pair), ``dup_trigram_excess`` (trigram occurrences beyond each
    first — i.e. total minus distinct), ``stop_hits`` (distinct hits in
    a small stop list), and the gate::

        keep = 10 <= n_words <= 100000
               and stop_hits >= 1
               and top_bigram_count * 1e6 // max(n_words - 1, 1) <= 100000
               and dup_trigram_excess == 0
               and uniq_words * 1e6 // n_words >= 400000
    """

    STOPS = frozenset(["the", "a", "and", "of", "to"])

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        n_words = np.zeros(n, np.int64)
        uniq_words = np.zeros(n, np.int64)
        top_bg = np.zeros(n, np.int64)
        dup_tg = np.zeros(n, np.int64)
        stop_hits = np.zeros(n, np.int64)
        for i, t in enumerate(texts):
            toks = (t or "").split(" ")
            m = len(toks)
            n_words[i] = m
            uniq = set(toks)
            uniq_words[i] = len(uniq)
            stop_hits[i] = len(uniq & self.STOPS)
            if m >= 2:
                counts: dict[tuple[str, str], int] = {}
                for j in range(m - 1):
                    k = (toks[j], toks[j + 1])
                    counts[k] = counts.get(k, 0) + 1
                top_bg[i] = max(counts.values())
            if m >= 3:
                tgs = list(zip(toks, toks[1:], toks[2:]))
                dup_tg[i] = len(tgs) - len(set(tgs))
        keep = (
            (n_words >= 10)
            & (n_words <= 100000)
            & (stop_hits >= 1)
            & (top_bg * 1_000_000 // np.maximum(n_words - 1, 1) <= 100000)
            & (dup_tg == 0)
            & (uniq_words * 1_000_000 // np.maximum(n_words, 1) >= 400000)
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words, pa.int64()),
                "uniq_words": pa.array(uniq_words, pa.int64()),
                "top_bigram_count": pa.array(top_bg, pa.int64()),
                "dup_trigram_excess": pa.array(dup_tg, pa.int64()),
                "stop_hits": pa.array(stop_hits, pa.int64()),
                "keep": pa.array(keep, pa.bool_()),
            }
        )


class C4LineRules:
    """C4-style line/page cleaning (Raffel et al. 2020, JMLR 21(140) §2.2
    — the "Colossal Clean Crawled Corpus" recipe): per page, keep only
    lines that pass the line rules, then gate the page itself. All
    counts are exact integers so a SQL oracle (DuckDB list lambdas over
    the same deterministic re-lining) replays them bit-for-bit.

    Line rules (C4: "only retained lines that ... contained at least 5
    words" / "removed any line with the word Javascript"):

    - at least ``min_words`` words;
    - none of ``line_block_words`` present;
    - when ``require_terminal_punct`` (the published rule; OFF here —
      the synthetic corpus carries no punctuation, so the rule would
      zero every page), the line's last word must end in ``.!?"``.

    Page rules (C4: bad-word list / "lorem ipsum" / "{" page drops,
    "discarded any page with fewer than 3 sentences"): drop when any
    word of ``page_bad_words`` occurs anywhere, or fewer than
    ``min_kept_lines`` lines survive.

    ``chunk_words``: a real crawl splits pages on ``'\\n'``
    (``chunk_words=None``); the sandbox corpus is a single-space word
    stream, so pages are deterministically re-lined into fixed-width
    ``chunk_words``-word pseudo-lines first (the last, shorter line
    then exercises the min-words drop exactly like a real trailing
    fragment).

    Emitted per page: ``doc_id``, ``n_lines``, ``n_kept_lines``,
    ``clean_n_words`` (words in kept lines), ``keep``. One linear pass,
    no shuffle; compile-once state rides the actor ``__init__``.
    """

    def __init__(
        self,
        min_words: int = 5,
        min_kept_lines: int = 3,
        line_block_words: tuple[str, ...] = ("spark",),
        page_bad_words: tuple[str, ...] = ("dup",),
        chunk_words: int | None = 8,
        require_terminal_punct: bool = False,
    ) -> None:
        self.min_words = min_words
        self.min_kept_lines = min_kept_lines
        self.line_block = frozenset(line_block_words)
        self.page_bad = frozenset(page_bad_words)
        self.chunk_words = chunk_words
        self.require_terminal_punct = require_terminal_punct

    def _lines(self, text: str) -> list[list[str]]:
        if self.chunk_words is None:
            return [ln.split(" ") for ln in text.split("\n")]
        toks = text.split(" ")
        w = self.chunk_words
        return [toks[i : i + w] for i in range(0, len(toks), w)]

    def _line_ok(self, line: list[str]) -> bool:
        if len(line) < self.min_words:
            return False
        if self.line_block and not self.line_block.isdisjoint(line):
            return False
        if self.require_terminal_punct and not line[-1].endswith(
            (".", "!", "?", '"')
        ):
            return False
        return True

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        n_lines = np.zeros(n, np.int64)
        n_kept = np.zeros(n, np.int64)
        clean_words = np.zeros(n, np.int64)
        bad_page = np.zeros(n, bool)
        for i, t in enumerate(texts):
            lines = self._lines(t or "")
            n_lines[i] = len(lines)
            kept = [ln for ln in lines if self._line_ok(ln)]
            n_kept[i] = len(kept)
            clean_words[i] = sum(len(ln) for ln in kept)
            if self.page_bad and any(
                not self.page_bad.isdisjoint(ln) for ln in lines
            ):
                bad_page[i] = True
        keep = (~bad_page) & (n_kept >= self.min_kept_lines)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_kept_lines": pa.array(n_kept, pa.int64()),
                "clean_n_words": pa.array(clean_words, pa.int64()),
                "keep": pa.array(keep, pa.bool_()),
            }
        )

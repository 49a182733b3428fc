"""Workload table and seeded workspace generator for the xlalign benchmark.

Every input the program sees is generated here from the run's seed: embedding
matrices (``.xemb`` and text), corpus documents, the language table, a
``metrics.csv`` for the analysis-only workload, and the run config. The same
seed and sizes always produce byte-identical files. Sizes belong to the
benchmark, not to xlalign, and are chosen to be paper-shaped: about 1k verses
by 768 dimensions per matrix, two documents (Matthew and John verse counts).

The generator writes the file formats itself (it does not call xlalign), so
the correctness oracle reads inputs that the program under test never wrote.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Word orders are dealt from a fixed cycle (SOV and SVO dominate, as in the
# world's languages) and then shuffled, so every seed has the same number of
# languages per order. The analyses' work depends on those counts: Tukey runs
# one comparison per pair of levels, so random counts would make run time
# depend on the seed.
WORD_ORDER_CYCLE = ("SOV", "SVO", "SOV", "SVO", "VSO", "SOV", "SVO", "VOS", "OVS", "OSV")
ZERO_SHOT_ORDERS = ("SOV", "SVO", "VSO")
METRIC_NAMES = ("f1", "avg_margin", "svg", "econd_hm", "gh")
TYPOLOGY_DIMS = {"syntax_vec": 24, "phonology_vec": 16, "inventory_vec": 12, "geo_vec": 3}
SYLLABLES_PER_FAMILY = 14
ONSETS = "ptkbdgmnslrvzfhjwcxq"
NUCLEI = "aeiouy"


@dataclass(frozen=True)
class Sizes:
    """Generator size settings for one workload."""

    languages: int
    docs: tuple[tuple[str, int], ...]  # (document name, verse count)
    dim: int = 768
    embeddings: bool = True  # False: no embeddings, a generated metrics.csv instead
    missing_frac: float = 0.0  # share of verses each language lacks
    text_every_other: bool = False  # store every second language as text embeddings
    corpus_verses: int | None = None  # verses kept per corpus document (None: all)
    words_per_verse: tuple[int, int] = (14, 26)
    concepts: int = 3000
    typology_missing: int = 0  # languages lacking one typology vector
    zero_shot: int = 0  # languages with no training sentences
    unknown_order: int = 0  # languages with an unknown word order


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Sizes
    analyses: tuple[str, ...]
    workers: str  # "1" or "nproc": pair-sweep worker threads
    blas: str  # "1" or "nproc": BLAS threads in the child process


MATTHEW_JOHN = (("matthew", 1071), ("john", 879))
ALL_MODES = ("corr", "search", "ablate", "anova", "ancova", "pca", "pcr")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_dense",
            why="every language has every verse, so the pair kernel (knn, mining, "
            "isomorphism) dominates and per-language reuse gets its best case",
            sizes=Sizes(languages=3, docs=MATTHEW_JOHN),
            analyses=("corr", "anova"),
            workers="1",
            blas="nproc",
        ),
        Workload(
            name="sweep_ragged",
            why="each language lacks its own 20% of verses and half are text files, so "
            "language-keyed reuse misses, parsing loads the corpus layer and the pool runs",
            sizes=Sizes(languages=4, docs=MATTHEW_JOHN, missing_frac=0.2, text_every_other=True),
            analyses=("corr", "anova"),
            workers="nproc",
            blas="1",
        ),
        Workload(
            name="analyze_many",
            why="no embedding work: 100 languages put the time into features.pair_features "
            "and the stats modes that both sweeps barely touch",
            sizes=Sizes(
                languages=100,
                docs=MATTHEW_JOHN,
                embeddings=False,
                corpus_verses=40,
                words_per_verse=(5, 10),
                concepts=600,
                typology_missing=4,
                zero_shot=14,
                unknown_order=6,
            ),
            analyses=ALL_MODES + ("zero_shot",),
            workers="1",
            # matrices are at most 4560 x 14: extra BLAS threads only spin,
            # adding CPU time and run-to-run noise without saving wall time
            blas="1",
        ),
    )
}

CONFIG_K = 4
CONFIG_GH_MAX_POINTS = 500
CONFIG_FOLDS = 5  # half the paper's 10: same code path, half the search time per run
CONFIG_SEED = 17


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def threads(setting: str) -> int:
    return nproc() if setting == "nproc" else int(setting)


def verse_ids(doc_index: int, count: int) -> list[str]:
    # zero-padded so lexicographic order is verse order
    return [f"{doc_index + 1}{v:05d}" for v in range(1, count + 1)]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# --- language table -------------------------------------------------------


def _languages(seed: int, sizes: Sizes) -> list[dict]:
    rng = _rng(seed, 1)
    n = sizes.languages
    n_families = max(2, n // 8)
    orders = [WORD_ORDER_CYCLE[i % len(WORD_ORDER_CYCLE)] for i in range(n)]
    rng.shuffle(orders)
    polysynthetic = set(rng.permutation(n)[: max(1, round(0.15 * n))].tolist())
    langs = []
    for i in range(n):
        family = i % n_families
        langs.append(
            {
                "lang": f"l{i:03d}",
                "family_id": family,
                "family": f"fam{family:02d}",
                "subfamily": f"sub{(i // n_families) % 2}",
                "word_order": orders[i],
                "polysynthetic": i in polysynthetic,
                "train_sentences": int(rng.lognormal(12.0, 1.5)),
                "sigma": float(rng.uniform(0.5, 1.5)),  # embedding noise level
                "tau": float(rng.uniform(0.15, 0.4)),  # embedding distortion
            }
        )
    picks = rng.permutation(n)
    zero_shot = picks[: sizes.zero_shot]
    for j, i in enumerate(zero_shot):
        langs[i]["train_sentences"] = 0
        langs[i]["word_order"] = ZERO_SHOT_ORDERS[j % len(ZERO_SHOT_ORDERS)]
    for i in picks[sizes.zero_shot : sizes.zero_shot + sizes.unknown_order]:
        langs[i]["word_order"] = ""
    # typology: a family centroid plus per-language noise, always nonzero
    centroids = {
        col: _rng(seed, 2, k).random((n_families, dim)) for k, (col, dim) in enumerate(TYPOLOGY_DIMS.items())
    }
    for i, lang in enumerate(langs):
        vrng = _rng(seed, 3, i)
        vectors = {}
        for col, dim in TYPOLOGY_DIMS.items():
            base = centroids[col][lang["family_id"]]
            if col == "syntax_vec":
                vec = (base + 0.35 * vrng.standard_normal(dim) > 0.5).astype(float)
                vec[vrng.integers(dim)] = 1.0
            else:
                vec = np.abs(base + 0.2 * vrng.standard_normal(dim)) + 0.01
            vectors[col] = vec
        lang["vectors"] = vectors
    missing_cols = list(TYPOLOGY_DIMS)
    for j, i in enumerate(_rng(seed, 4).permutation(n)[: sizes.typology_missing]):
        del langs[i]["vectors"][missing_cols[j % len(missing_cols)]]
    return langs


def _write_language_table(path: Path, langs: list[dict]) -> None:
    header = ["lang", "family", "subfamily", "word_order", "polysynthetic", "train_sentences"]
    header += list(TYPOLOGY_DIMS)
    lines = ["\t".join(header)]
    for lang in langs:
        cells = [
            lang["lang"],
            lang["family"],
            lang["subfamily"],
            lang["word_order"],
            "true" if lang["polysynthetic"] else "false",
            str(lang["train_sentences"]),
        ]
        for col in TYPOLOGY_DIMS:
            vec = lang["vectors"].get(col)
            cells.append("" if vec is None else ",".join(f"{v:.6g}" for v in vec))
        lines.append("\t".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- corpus ---------------------------------------------------------------


def _lexicons(seed: int, sizes: Sizes, langs: list[dict]) -> dict[str, list[str]]:
    """Per-language word for each concept: family roots, mutated per
    subfamily and per language, so overlaps fall with phylogenetic distance."""
    families = sorted({lang["family_id"] for lang in langs})
    syllables = {}
    for f in families:
        frng = _rng(seed, 5, f)
        syllables[f] = [
            ONSETS[frng.integers(len(ONSETS))] + NUCLEI[frng.integers(len(NUCLEI))]
            for _ in range(SYLLABLES_PER_FAMILY)
        ]

    def word(rng, f):
        return "".join(syllables[f][rng.integers(SYLLABLES_PER_FAMILY)] for _ in range(rng.integers(1, 4)))

    roots = {}
    for f in families:
        rrng = _rng(seed, 6, f)
        roots[f] = [word(rrng, f) for _ in range(sizes.concepts)]
    sub_lex = {}
    for lang in langs:
        key = (lang["family_id"], lang["subfamily"])
        if key not in sub_lex:
            srng = _rng(seed, 7, key[0], int(key[1][-1]))
            sub_lex[key] = [
                word(srng, key[0]) if srng.random() < 0.3 else root for root in roots[key[0]]
            ]
    lex = {}
    for i, lang in enumerate(langs):
        lrng = _rng(seed, 8, i)
        base = sub_lex[(lang["family_id"], lang["subfamily"])]
        lex[lang["lang"]] = [
            word(lrng, lang["family_id"]) if lrng.random() < 0.3 else w for w in base
        ]
    return lex


def _verse_concepts(seed: int, doc_index: int, count: int, sizes: Sizes) -> list[np.ndarray]:
    rng = _rng(seed, 9, doc_index)
    lo, hi = sizes.words_per_verse
    weights = 1.0 / np.arange(1, sizes.concepts + 1)  # Zipf-like concept frequencies
    weights /= weights.sum()
    return [rng.choice(sizes.concepts, size=int(rng.integers(lo, hi + 1)), p=weights) for _ in range(count)]


# --- embeddings -----------------------------------------------------------


def write_xemb(path: Path, data: np.ndarray, ids: list[str]) -> None:
    n_rows, dim = data.shape
    parts = [b"XEMB", bytes([1]), struct.pack("<II", n_rows, dim), data.astype("<f4").tobytes()]
    for vid in ids:
        raw = vid.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw)
    path.write_bytes(b"".join(parts))


def write_text_matrix(path: Path, data: np.ndarray, ids: list[str]) -> None:
    # %.9g round-trips float32
    with open(path, "w", encoding="utf-8") as fh:
        for vid, row in zip(ids, data.astype(np.float32)):
            fh.write(f"#id:{vid} " + " ".join(f"{v:.9g}" for v in row.tolist()) + "\n")


def _embeddings(seed: int, doc_index: int, count: int, dim: int, langs: list[dict]) -> dict[str, np.ndarray]:
    """Shared verse meanings with a decaying spectrum, seen through a
    per-language near-identity map plus offset and noise."""
    rng = _rng(seed, 10, doc_index)
    decay = (1.0 + np.arange(dim)) ** -0.5
    meaning = rng.standard_normal((count, dim)) * decay
    out = {}
    for i, lang in enumerate(langs):
        lrng = _rng(seed, 11, i)
        transform = np.eye(dim) + lang["tau"] * lrng.standard_normal((dim, dim)) / math.sqrt(dim)
        offset = lrng.standard_normal(dim) * decay
        nrng = _rng(seed, 12, i, doc_index)
        noise = lang["sigma"] * nrng.standard_normal((count, dim)) * decay
        out[lang["lang"]] = (meaning @ transform + noise + offset).astype(np.float32)
    return out


# --- metrics table for the analysis-only workload --------------------------


def _metrics_rows(seed: int, langs: list[dict]) -> list[tuple[str, str, tuple[float, ...]]]:
    rng = _rng(seed, 13)
    rows = []
    for a, b in itertools.combinations(langs, 2):
        train = math.log1p(a["train_sentences"] + b["train_sentences"])
        fam = float(a["family"] == b["family"])
        order = float(a["word_order"] != "" and a["word_order"] == b["word_order"])
        noise = rng.standard_normal(5)
        quality = 0.25 * (train - 12.0) + 0.6 * fam + 0.3 * order + 0.5 * noise[0]
        f1 = 1.0 / (1.0 + math.exp(-quality))
        rows.append(
            (
                a["lang"],
                b["lang"],
                (
                    f1,
                    0.6 + 0.8 * f1 + 0.05 * noise[1],
                    math.exp(1.5 - 0.8 * quality + 0.3 * noise[2]),
                    1.0 + math.exp(3.0 - 0.3 * quality + 0.2 * noise[3]),
                    math.exp(-1.5 - 0.2 * quality + 0.2 * noise[4]),
                ),
            )
        )
    return rows


# --- workspace --------------------------------------------------------------


def generate(workload: Workload, seed: int, root: Path, sizes: Sizes | None = None) -> dict:
    """Write the workload's inputs under ``root`` and return a manifest that
    lists the inputs, the jobs to run and what correct outputs look like."""
    sizes = sizes or workload.sizes
    root.mkdir(parents=True, exist_ok=True)
    langs = _languages(seed, sizes)
    codes = [lang["lang"] for lang in langs]
    _write_language_table(root / "languages.tsv", langs)

    lex = _lexicons(seed, sizes, langs)
    corpus_dirs, emb_dirs, emb_files = [], [], {}
    text_langs = set(codes[1::2]) if sizes.text_every_other else set()
    for d, (doc, count) in enumerate(sizes.docs):
        ids = verse_ids(d, count)
        drng = _rng(seed, 14, d)
        keep = {}
        for code in codes:
            if sizes.missing_frac > 0:
                drop = drng.choice(count, size=int(round(sizes.missing_frac * count)), replace=False)
                mask = np.ones(count, dtype=bool)
                mask[drop] = False
                keep[code] = np.flatnonzero(mask)
            else:
                keep[code] = np.arange(count)
        concepts = _verse_concepts(seed, d, count, sizes)
        cdir = root / "texts" / doc
        cdir.mkdir(parents=True)
        corpus_dirs.append(cdir)
        n_corpus = sizes.corpus_verses or count
        for code in codes:
            words = lex[code]
            lines = [
                f"{ids[v]}\t" + " ".join(words[c] for c in concepts[v])
                for v in keep[code]
                if v < n_corpus
            ]
            (cdir / f"{code}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if sizes.embeddings:
            edir = root / "emb" / doc
            edir.mkdir(parents=True)
            emb_dirs.append(edir)
            matrices = _embeddings(seed, d, count, sizes.dim, langs)
            for code in codes:
                rows = keep[code]
                row_ids = [ids[v] for v in rows]
                if code in text_langs:
                    path = edir / f"{code}.txt"
                    write_text_matrix(path, matrices[code][rows], row_ids)
                else:
                    path = edir / f"{code}.xemb"
                    write_xemb(path, matrices[code][rows], row_ids)
                emb_files.setdefault(code, []).append(str(path))

    n_pairs = len(codes) * (len(codes) - 1) // 2
    complete = [lang["lang"] for lang in langs if len(lang["vectors"]) == len(TYPOLOGY_DIMS)]
    manifest = {
        "workload": workload.name,
        "seed": seed,
        "root": str(root),
        "languages": codes,
        "n_pairs": n_pairs,
        "n_complete_pairs": len(complete) * (len(complete) - 1) // 2,
        "docs": [doc for doc, _ in sizes.docs],
        "language_table": str(root / "languages.tsv"),
        "corpus_dirs": [str(p) for p in corpus_dirs],
        "embedding_files": emb_files,
        "analyses": list(workload.analyses),
        "k": CONFIG_K,
        "gh_max_points": CONFIG_GH_MAX_POINTS,
    }
    out = root / "out"
    if sizes.embeddings:
        config = root / "run.cfg"
        config.write_text(
            "\n".join(
                [
                    "embeddings = " + ", ".join(os.path.relpath(p, root) for p in emb_dirs),
                    "corpus = " + ", ".join(os.path.relpath(p, root) for p in corpus_dirs),
                    "languages = languages.tsv",
                    f"k = {CONFIG_K}",
                    f"gh_max_points = {CONFIG_GH_MAX_POINTS}",
                    f"folds = {CONFIG_FOLDS}",
                    f"seed = {CONFIG_SEED}",
                    "analyses = " + ", ".join(workload.analyses),
                    f"workers = {threads(workload.workers)}",
                    "out = out",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        manifest["config"] = str(config)
        manifest["jobs"] = [["report", "--config", str(config)]]
    else:
        metrics = root / "metrics.csv"
        lines = ["lang_a,lang_b," + ",".join(METRIC_NAMES)]
        for a, b, values in _metrics_rows(seed, langs):
            lines.append(f"{a},{b}," + ",".join(f"{v:.12g}" for v in values))
        metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest["metrics_csv"] = str(metrics)
        manifest["jobs"] = _analysis_jobs(workload, manifest, str(metrics), out)
    manifest["out"] = str(out)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    return manifest


def _analysis_jobs(workload: Workload, manifest: dict, metrics: str, out: Path) -> list[list[str]]:
    """The CLI calls of the analysis workload: features, then each mode."""
    features = str(out / "features.csv")
    jobs = [
        [
            "features",
            "--languages", manifest["language_table"],
            "--char-corpus", manifest["corpus_dirs"][0],
            "--token-corpus", manifest["corpus_dirs"][-1],
            "--out", features,
        ]
    ]
    for mode in workload.analyses:
        if mode == "zero_shot":
            jobs.append(
                [
                    "zero-shot",
                    "--metrics", metrics,
                    "--languages", manifest["language_table"],
                    "--features", features,
                    "--out", str(out / "analysis_zero_shot.json"),
                    "--plot-out", str(out / "plot_zero_shot_groups.csv"),
                ]
            )
        else:
            jobs.append(
                [
                    "analyze",
                    "--features", features,
                    "--metrics", metrics,
                    "--mode", mode,
                    "--folds", str(CONFIG_FOLDS),
                    "--seed", str(CONFIG_SEED),
                    "--out", str(out / f"analysis_{mode}.json"),
                ]
            )
    return jobs


def child_env(workload: Workload, src: Path) -> dict[str, str]:
    """Environment of every child process: the program's source on the path
    and BLAS capped so that workers x BLAS threads <= nproc."""
    env = dict(os.environ)
    env.pop("XLG_THREADS", None)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"  # same set/dict layouts, so same work, in every run
    blas = str(threads(workload.blas))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = blas
    return env

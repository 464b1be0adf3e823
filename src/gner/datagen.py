"""Synthetic German-like NER corpora for tests and desk-scale experiments.

Entities are built from morpheme templates so that entity class is
recoverable from the surface form (…burg/…stadt for locations, …werke/GmbH
for organizations, first+surname pairs for persons, …isch adjectives for
derived mentions).  Train and dev splits draw from disjoint stem pools, and
several sentence templates are deliberately class-ambiguous from context
alone, so generalization to dev requires sub-word information.

This module generates fixture data only; it stands in for licensed corpora
that cannot be bundled.
"""

from __future__ import annotations

import numpy as np

from .corpus import Sentence, Token
from .embeddings import EmbeddingStore

__all__ = [
    "make_corpus",
    "make_ambiguous_corpus",
    "make_embedding_store",
    "FUNCTION_WORDS",
]

_FIRST_NAMES = (
    "Anna", "Jonas", "Miriam", "Lukas", "Sofia", "Felix", "Clara", "Emil",
    "Greta", "Paul", "Lena", "Maximilian", "Hannah", "Oskar", "Ida", "Theo",
)
_SURNAME_SUFFIXES = ("mann", "meyer", "stein", "bauer")
_LOC_SUFFIXES = ("burg", "stadt", "heim", "dorf", "hausen", "furt")
_ORG_SUFFIXES = ("werke", "verband", "verein", "brauerei")
_OTH_SUFFIXES = ("messe", "fest", "preis", "biennale")
_STEM_SYLLABLES = (
    "ad", "bel", "dor", "fal", "gro", "hal", "ker", "lin", "mor", "nor",
    "pol", "rau", "sta", "tul", "wes", "zel", "bra", "kli", "ost", "ulm",
)

FUNCTION_WORDS = (
    "der", "die", "das", "ein", "eine", "und", "in", "im", "am", "bei",
    "nach", "mit", "gegen", "liegt", "besucht", "arbeitet", "gewinnt",
    "eröffnet", "findet", "statt", "trifft", "viele", "Gäste", "besuchen",
    "heute", "morgen", "wieder", "gern", "den", "dem", "Vorstand", "Büro",
    "Maler", "Chef", "Bahnhof", "Westen", "Osten", "Norden", "Süden",
    ".", ",",
)


def _stems(split: str) -> list[str]:
    # Disjoint pools: even syllable pairs for train, odd for dev.
    combos = [
        a + b
        for i, a in enumerate(_STEM_SYLLABLES)
        for j, b in enumerate(_STEM_SYLLABLES)
        if a != b
    ]
    pool = combos[0::2] if split == "train" else combos[1::2]
    return [s.capitalize() for s in pool]


class _Lexicon:
    def __init__(self, split: str, rng: np.random.Generator):
        stems = _stems(split)
        rng.shuffle(stems)
        self.rng = rng
        half = len(_FIRST_NAMES) // 2
        self.firsts = list(_FIRST_NAMES[:half] if split == "train" else _FIRST_NAMES[half:])
        self.stems = stems

    def _stem(self) -> str:
        return self.stems[int(self.rng.integers(len(self.stems)))]

    def person(self) -> list[str]:
        first = self.firsts[int(self.rng.integers(len(self.firsts)))]
        if self.rng.random() < 0.5:
            return [first]
        return [first, self._stem() + _SURNAME_SUFFIXES[int(self.rng.integers(len(_SURNAME_SUFFIXES)))]]

    def location(self) -> list[str]:
        return [self._stem() + _LOC_SUFFIXES[int(self.rng.integers(len(_LOC_SUFFIXES)))]]

    def organization(self) -> list[str]:
        if self.rng.random() < 0.5:
            return [self._stem() + _ORG_SUFFIXES[int(self.rng.integers(len(_ORG_SUFFIXES)))]]
        return [self._stem() + "werke", "GmbH"]

    def other(self) -> list[str]:
        return [self._stem() + _OTH_SUFFIXES[int(self.rng.integers(len(_OTH_SUFFIXES)))]]

    def loc_deriv(self) -> list[str]:
        return [self._stem().lower() + "isch"]

    def loc_part(self) -> list[str]:
        return [self.location()[0] + "-Bahnhof"]

    def org_part(self) -> list[str]:
        return [self.organization()[0].split("-")[0] + "-Chef"]


def _entity(tokens: list[str], cls: str) -> tuple[list[str], list[str]]:
    labels = [f"B-{cls}"] + [f"I-{cls}"] * (len(tokens) - 1)
    return tokens, labels


# Each template yields (tokens, outer, inner).  Slots: callables on the lexicon.
def _templates(lex: _Lexicon, with_subclasses: bool):
    rng = lex.rng

    def plain(words: list[str]) -> tuple[list[str], list[str], list[str]]:
        return words, ["O"] * len(words), ["O"] * len(words)

    def joined(*pieces) -> tuple[list[str], list[str], list[str]]:
        toks: list[str] = []
        outer: list[str] = []
        inner: list[str] = []
        for piece in pieces:
            if isinstance(piece, str):
                toks.append(piece)
                outer.append("O")
                inner.append("O")
            else:
                ptoks, plabels, pinner = piece
                toks += ptoks
                outer += plabels
                inner += pinner
        return toks, outer, inner

    def ent(maker, cls) -> tuple[list[str], list[str], list[str]]:
        toks, labels = _entity(maker(), cls)
        return toks, labels, ["O"] * len(toks)

    def nested_org() -> tuple[list[str], list[str], list[str]]:
        # A club-style organization containing a location, e.g. "FC <city>".
        city = lex.location()[0]
        toks = ["FC", city]
        return toks, ["B-ORG", "I-ORG"], ["O", "B-LOC"]

    ambiguous_cls = [("LOC", lex.location), ("ORG", lex.organization), ("OTH", lex.other)]

    def ambiguous_context():
        # Same context for three classes: only the surface form disambiguates.
        cls, maker = ambiguous_cls[int(rng.integers(3))]
        return joined("viele", "Gäste", "besuchen", ent(maker, cls), ".")

    choices = [
        lambda: joined(ent(lex.person, "PER"), "besucht", ent(lex.location, "LOC"), "."),
        lambda: joined("die", ent(lex.organization, "ORG"), "eröffnet", "ein", "Büro", "in",
                       ent(lex.location, "LOC"), "."),
        lambda: joined(ent(lex.person, "PER"), "arbeitet", "bei", "der", ent(lex.organization, "ORG"), "."),
        lambda: joined(ent(lex.location, "LOC"), "liegt", "im",
                       str(rng.choice(["Westen", "Osten", "Norden", "Süden"])), "."),
        ambiguous_context,
        lambda: joined("heute", "gewinnt", ent(lex.person, "PER"), "gegen",
                       ent(lex.person, "PER"), "."),
        lambda: joined("die", ent(lex.other, "OTH"), "findet", "in", ent(lex.location, "LOC"),
                       "statt", "."),
        lambda: joined("der", nested_org(), "gewinnt", "wieder", "."),
        lambda: plain(["heute", "liegt", "der", "Vorstand", "im", "Büro", "."]),
    ]
    if with_subclasses:
        choices += [
            lambda: joined("der", ent(lex.loc_deriv, "LOCderiv"), "Maler",
                           ent(lex.person, "PER"), "besucht", ent(lex.location, "LOC"), "."),
            lambda: joined("am", ent(lex.loc_part, "LOCpart"), "trifft", ent(lex.person, "PER"),
                           "den", ent(lex.org_part, "ORGpart"), "."),
        ]
    return choices


def make_corpus(n_sentences: int, seed: int = 0, split: str = "train",
                with_subclasses: bool = True) -> list[Sentence]:
    """Nested-annotation corpus with the twelve-class label set (or its four
    main classes when ``with_subclasses`` is off)."""
    rng = np.random.default_rng(seed + (0 if split == "train" else 7_919))
    lex = _Lexicon(split, rng)
    templates = _templates(lex, with_subclasses)
    sentences = []
    for i in range(n_sentences):
        toks, outer, inner = templates[int(rng.integers(len(templates)))]()
        sentences.append(
            Sentence([Token(t) for t in toks], outer, inner, source_id=f"synthetic-{split}:{i}")
        )
    return sentences


def make_ambiguous_corpus(n_sentences: int, seed: int = 0, split: str = "train") -> list[Sentence]:
    """Four-main-class corpus where most entity slots sit in contexts shared
    by all classes, so only the surface form tells LOC from ORG, OTH or PER.
    With a context-only embedding store this isolates the contribution of
    character features."""
    rng = np.random.default_rng(seed + (0 if split == "train" else 104_729))
    lex = _Lexicon(split, rng)
    makers = [("PER", lex.person), ("LOC", lex.location), ("ORG", lex.organization), ("OTH", lex.other)]

    def any_entity():
        cls, maker = makers[int(rng.integers(len(makers)))]
        toks, labels = _entity(maker(), cls)
        return toks, labels

    ambiguous_frames = [
        ("viele Gäste besuchen", "."),
        ("heute steht", "im Mittelpunkt ."),
        ("", "ist bekannt ."),
        ("", "gefällt den Leuten ."),
        ("man spricht über", "."),
        ("alle kennen", "."),
    ]
    anchor_templates = [
        lambda: ("PER", lex.person, "besucht", ("LOC", lex.location)),
        lambda: ("ORG", lex.organization, "eröffnet ein Büro", None),
        lambda: ("OTH", lex.other, "findet heute statt", None),
    ]

    sentences = []
    for i in range(n_sentences):
        if rng.random() < 0.7:
            pre, post = ambiguous_frames[int(rng.integers(len(ambiguous_frames)))]
            etoks, elabels = any_entity()
            toks = pre.split() + etoks + post.split()
            labels = ["O"] * len(pre.split()) + elabels + ["O"] * len(post.split())
        else:
            cls, maker, mid, second = anchor_templates[int(rng.integers(len(anchor_templates)))]()
            etoks, elabels = _entity(maker(), cls)
            toks, labels = list(etoks), list(elabels)
            toks += mid.split()
            labels += ["O"] * len(mid.split())
            if second is not None:
                cls2, maker2 = second
                etoks2, elabels2 = _entity(maker2(), cls2)
                toks += etoks2
                labels += elabels2
            toks.append(".")
            labels.append("O")
        sentences.append(
            Sentence([Token(t) for t in toks], labels, ["O"] * len(toks),
                     source_id=f"synthetic-ambiguous-{split}:{i}")
        )
    return sentences


def make_embedding_store(
    sentences: list[Sentence],
    dim: int = 16,
    seed: int = 0,
    coverage: str = "all",
) -> EmbeddingStore:
    """Plain store with deterministic random vectors.

    ``coverage="all"`` covers every token in ``sentences``;
    ``coverage="context"`` covers only non-entity tokens, leaving every
    entity out of vocabulary (useful to force the character path to carry
    the class signal)."""
    words: set[str] = set(FUNCTION_WORDS)
    if coverage == "all":
        for s in sentences:
            words.update(t.text for t in s.tokens)
    elif coverage == "context":
        for s in sentences:
            for tok, lab in zip(s.tokens, s.outer_labels):
                if lab == "O":
                    words.add(tok.text)
    else:
        raise ValueError(f"unknown coverage {coverage!r}")
    rng = np.random.default_rng(seed)
    vectors = {w: rng.normal(scale=0.5, size=dim) for w in sorted(words)}
    return EmbeddingStore(kind="plain", dim=dim, word_vectors=vectors)

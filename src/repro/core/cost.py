"""Statistical cost model for hypothesis ranking (Section 8 of the paper).

Morpheus orders the worklist of hypotheses by a cost metric: hypotheses are
explored in increasing size (Occam's razor) and, within the same size, in
decreasing likelihood under a 2-gram model of component sequences trained on
existing code.  :class:`NGramModel` is a Laplace-smoothed bigram model over
component names; :class:`CostModel` combines it with the size ordering.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from .corpus import training_sentences

#: Sentence delimiters used by the bigram model.
SENTENCE_START = "<s>"
SENTENCE_END = "</s>"


class NGramModel:
    """A bigram language model with Laplace (add-one) smoothing."""

    def __init__(self, vocabulary: Iterable[str]) -> None:
        self.vocabulary = tuple(sorted(set(vocabulary)))
        self._unigram_counts: Dict[str, int] = {}
        self._bigram_counts: Dict[Tuple[str, str], int] = {}
        #: ``(left, right) -> log P(right | left)``, filled as pairs are
        #: first scored (nothing is computed at import) and emptied whenever
        #: training changes the counts.
        self._log_table: Dict[Tuple[str, str], float] = {}

    def train(self, sentences: Iterable[Sequence[str]]) -> None:
        """Count unigrams and bigrams over the training sentences."""
        for sentence in sentences:
            tokens = [SENTENCE_START] + [token for token in sentence] + [SENTENCE_END]
            for left, right in zip(tokens, tokens[1:]):
                self._unigram_counts[left] = self._unigram_counts.get(left, 0) + 1
                self._bigram_counts[(left, right)] = self._bigram_counts.get((left, right), 0) + 1
        self._log_table.clear()

    def bigram_log_probability(self, left: str, right: str) -> float:
        """``log P(right | left)`` with add-one smoothing."""
        vocabulary_size = len(self.vocabulary) + 2  # plus <s> and </s>
        bigram = self._bigram_counts.get((left, right), 0)
        unigram = self._unigram_counts.get(left, 0)
        return math.log((bigram + 1) / (unigram + vocabulary_size))

    def sequence_log_probability(self, sequence: Sequence[str], closed: bool = False) -> float:
        """Log probability of a component sequence.

        ``closed`` adds the end-of-sentence transition, which is appropriate
        for complete programs but not for partial hypotheses that may still
        be extended.  Each bigram's :meth:`bigram_log_probability` is
        computed once and then read from a table; the terms are summed in
        sequence order, so the result is bit-identical to the formula's.
        """
        table = self._log_table
        tokens = (*sequence, SENTENCE_END) if closed else sequence
        total = 0.0
        left = SENTENCE_START
        for right in tokens:
            log_probability = table.get((left, right))
            if log_probability is None:
                log_probability = self.bigram_log_probability(left, right)
                table[left, right] = log_probability
            total += log_probability
            left = right
        return total


@dataclass
class CostModel:
    """Scores hypotheses by size and by the bigram likelihood of their components.

    Lower scores are explored first.  The score is
    ``size_weight * size - log P(sequence)``: every additional component costs
    ``size_weight`` (Occam's razor) plus however unlikely the new bigram is
    under the statistical model.  A small ``size_weight`` lets a very
    idiomatic large pipeline be explored before an exotic small one, which is
    the single-core analogue of the paper's one-search-thread-per-size
    strategy.
    """

    #: ``None`` selects the process's one :func:`default_ngram_model`,
    #: trained on first use and shared by every cost model after it.
    model: NGramModel = None
    size_weight: float = 1.0

    def __post_init__(self):
        if self.model is None:
            self.model = _shared_default_model()

    def score(self, size: int, sequence: Sequence[str]) -> float:
        """Lower scores are explored first."""
        likelihood = self.model.sequence_log_probability(sequence)
        return self.size_weight * size - likelihood

    def priority(self, size: int, sequence: Sequence[str]) -> Tuple[float, int]:
        """A sortable priority key."""
        return (self.score(size, sequence), size)


@dataclass
class UniformCostModel(CostModel):
    """Ablation: size-only ordering with no statistical ranking."""

    def priority(self, size: int, sequence: Sequence[str]) -> Tuple[float, int]:
        return (float(size), size)

    def score(self, size: int, sequence: Sequence[str]) -> float:
        return float(size)


def default_ngram_model() -> NGramModel:
    """The bigram model trained on the built-in corpus."""
    sentences = training_sentences()
    vocabulary = {token for sentence in sentences for token in sentence}
    model = NGramModel(vocabulary)
    model.train(sentences)
    return model


@functools.lru_cache(maxsize=None)
def _shared_default_model() -> NGramModel:
    """The default bigram model, trained once per process.

    Its counts are constants of the built-in corpus and its log table a
    memo of them, so sharing it changes no score.
    """
    return default_ngram_model()

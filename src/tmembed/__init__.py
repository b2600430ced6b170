"""Two-phase Tsetlin Machine autoencoder: propositional word embeddings,
similarity evaluation, and embedding-driven data augmentation."""

from .corpus import (DocumentSet, Vocabulary, build_vocabulary, read_corpus,
                     tokenize, vectorize)
from .cotm import ClauseBank, clause_output, init_bank, predict, update
from .knowledge import (ClauseArrays, KnowledgeStore, WordKnowledge,
                        filter_by_polarity, from_bank)
from .phase1 import Phase1Config, build_x_from_documents, train_all, train_word
from .phase2 import (EmbeddingMatrix, PolarityIndex, build_x_phase2,
                     extract_embedding, train_embedding)
from .evaluation import (SimilarityReport, WordPairBenchmark, cosine, evaluate,
                         kendall, spearman)
from .augment import (AugmentConfig, ClassifierConfig, accuracy,
                      augment_corpus, augment_document, nearest_words,
                      train_classifier)

__version__ = "0.1.0"

"""Author profiling for short social-network texts.

Predicts gender, age band and Big-Five personality traits from stylistic
features: character n-grams over dynamically normalized text and POS tag
n-grams with special tags for mentions, links and hashtags, fed to
linear max-margin classifiers and regressors.
"""

from .corpus import (CorpusSpec, Document, LabeledDocument, LabelSet, Sample,
                     group_into_samples, load_flat_csv, load_pan_truth_dir,
                     save_flat_csv, save_pan_truth_dir, stratified_split)
from .errors import ConfigError, DataError, StyloprofError
from .features import (FeatureKey, ScalingPolicy, SparseMatrix, Vocabulary,
                       build_vocabulary, char_ngrams, default_policy,
                       pos_ngrams, vectorize)
from .learner import (LinearModel, ModelBundle, OneVsRestModel, TrainConfig,
                      TraitRegressor, load_model, margins, predict,
                      save_model, train_binary, train_ovr, train_traits)
from .metrics import (ClassReport, ConfusionMatrix, TraitReport, confusion,
                      render_report, render_trait_report, report, rmse,
                      trait_rmse_report)
from .normalize import (NormalizationRule, NormalizedText, default_rules,
                        hashtag_rule, load_rules, normalize)
from .pos import (TaggedToken, fallback_tag, ingest_tagged_file, load_lexicon,
                  reduce_tag, relabel, simple_tokenize)

__version__ = "0.1.0"

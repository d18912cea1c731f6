"""Pragmatic radiology-report corpus toolkit.

Rule-based condition labeling, indication-conditioned negative-mention
statistics, compositional report cleaning with a label-preservation guard,
pragmatics-aware evaluation metrics, and label-set retrieval generation.

``import radpragma`` loads no submodule: each public name imports the
module that defines it the first time it is read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "backends": "PatternBackend RemoteRewriteBackend",
    "cleaning": "DEFAULT_RULES REMOVED CleaningRule apply_rule clean_report "
                "clean_sentence evaluate_cleaning",
    "errors": "BackendError DegenerateTableError InputError",
    "generator": "GenerationRequest RetrievalIndex build_generation_prompt "
                 "build_index generate_remote generate_retrieval",
    "labeler": "Lexicon default_lexicon indication_mentions label_report "
               "label_sentence",
    "metrics": "KeywordCatalog MetricsReport bleu2 default_catalog "
               "evaluate_generation hallucination_rate negative_f1 "
               "positive_f1",
    "model": "CONDITIONS Condition LabelValue LabelVector Report Sentence "
             "normalize_text segment_sentences",
    "stats": "ContingencyTable2x2 CorpusSummary chi_square_test "
             "conditional_negative_rates shift_report summarize",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list:
    return sorted(globals().keys() | _MODULE_OF.keys())

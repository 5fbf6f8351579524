"""The paper's evaluated workflows (Section 5.1, Figure 10).

* :mod:`repro.workloads.finra` — financial trade validation: two fetch
  functions feed 200 concurrent audit rules whose results are merged;
* :mod:`repro.workloads.ml_training` — ORION-style training: partition ->
  PCA (x2) -> tree training (x8) -> merge/validate;
* :mod:`repro.workloads.ml_prediction` — model serving: partition (x16
  ways) + model load -> 16 predictors -> combine;
* :mod:`repro.workloads.wordcount` — FunctionBench MapReduce: split -> 8
  mappers -> reducer, plus a Java-runtime variant (Section 5.7).

All input data is synthetic (no proprietary traces): deterministic
generators in :mod:`repro.workloads.data` produce trades dataframes,
MNIST-like images and book-like text with the same sizes and object-graph
shapes the paper reports.
"""

from repro.workloads.data import (make_audit_rules, make_book_text,
                                  make_images, make_market_data, make_trades)
from repro.workloads.finra import build_finra
from repro.workloads.ml_training import build_ml_training
from repro.workloads.ml_prediction import build_ml_prediction
from repro.workloads.wordcount import build_wordcount

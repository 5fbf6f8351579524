"""Workflow-level experiments: Fig 3, Fig 5, Fig 13, Fig 14.

Each experiment deploys scaled-down versions of the four workloads on a
fresh simulated cluster per transport and reports end-to-end latency and
state-transfer shares.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.config import bench_scale, scaled
from repro.bench.microbench import STANDARD_TRANSPORTS
from repro.platform.cluster import ServerlessPlatform
from repro.platform.dag import Workflow
from repro.transfer import StateTransport, get_transport
from repro.workloads.finra import build_finra
from repro.workloads.ml_prediction import build_ml_prediction
from repro.workloads.ml_training import build_ml_training
from repro.workloads.wordcount import build_wordcount


def workflow_configs(scale: Optional[float] = None
                     ) -> Dict[str, Tuple[Callable[[], Workflow], dict]]:
    """(builder, params) for the four evaluated workflows, scaled.

    Paper-scale inputs: FINRA 3.5 MB trades x 200 rules; ML training 10 k
    images; ML prediction 30 MB images / 16 predictors; WordCount 13 MB
    text / 8 mappers.
    """
    s = bench_scale() if scale is None else scale
    finra_width = scaled(200, s, minimum=8)
    predict_width = scaled(16, s, minimum=4)
    map_width = 8
    # the trades dataframe shrinks slower than the fan-out width: its
    # (de)serialization cost is the phenomenon under study
    finra_rows = scaled(25_000, min(1.0, s ** 0.5), minimum=1_000)
    return {
        "finra": (
            lambda: build_finra(width=finra_width),
            {"n_rows": finra_rows, "width": finra_width},
        ),
        "ml-training": (
            lambda: build_ml_training(),
            {"n_images": scaled(10_000, s, minimum=8_000),
             "epochs": 5, "n_trees": 32},
        ),
        "ml-prediction": (
            lambda: build_ml_prediction(width=predict_width),
            {"n_images": scaled(1_280, s, minimum=128),
             "predict_width": predict_width, "n_trees": 32},
        ),
        "wordcount": (
            lambda: build_wordcount(width=map_width),
            {"n_bytes": scaled(13 << 20, s, minimum=256 << 10),
             "map_width": map_width},
        ),
    }


def _light_params(params: dict) -> dict:
    """Shrink payload knobs for the pre-warming run (same widths, so the
    same containers get warmed, but far less host CPU)."""
    light = dict(params)
    if "n_rows" in light:
        light["n_rows"] = min(light["n_rows"], 500)
    if "n_images" in light:
        light["n_images"] = min(light["n_images"],
                                4 * light.get("predict_width", 16))
    if "n_bytes" in light:
        light["n_bytes"] = min(light["n_bytes"], 64 << 10)
    if "epochs" in light:
        light["epochs"] = 1
    return light


def run_workflow_once(builder: Callable[[], Workflow], params: dict,
                      transport: StateTransport):
    """Deploy, pre-warm, run one invocation, return its record."""
    platform = ServerlessPlatform(n_machines=10)
    workflow = builder()
    platform.deploy(workflow, transport)
    platform.prewarm(workflow.name, _light_params(params))
    return platform.run_once(workflow.name, params)


def _latency_ms(builder: Callable[[], Workflow], params: dict,
                transports) -> Dict[str, float]:
    """E2E latency (ms) of one invocation under each named transport."""
    return {tname: run_workflow_once(builder, params,
                                     get_transport(tname)).latency_ns / 1e6
            for tname in transports}


# --- Fig 3 / Fig 5: state-transfer cost shares --------------------------------------

def fig3_transfer_share(scale: Optional[float] = None,
                        null_network: bool = False
                        ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Breakdown of workflow E2E time under messaging and shared storage.

    With ``null_network=True`` this becomes the Fig 5 emulation: the
    messaging/storage software path is zeroed (a zero-byte message; no
    storage reads/writes) and only (de)serialization remains.
    """
    configs = workflow_configs(scale)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for wf_name, (builder, params) in configs.items():
        row = {}
        for tname in ("messaging", "storage"):
            record = run_workflow_once(
                builder, params,
                get_transport(tname, null_network=null_network))
            cp = record.critical_path_totals()
            serdes = cp["transform"] + cp["reconstruct"]
            software = cp["network"]
            # shares of the critical path, matching the paper's stacked
            # end-to-end breakdown; platform scheduling overhead is
            # orthogonal (the paper's Source #1) and reported separately
            busy = (cp["compute"] + serdes + software) or 1
            row[tname] = {
                "e2e_ms": record.latency_ns / 1e6,
                "func_share": cp["compute"] / busy,
                "platform_share": cp["platform"] / busy,
                "serdes_share": serdes / busy,
                "software_share": software / busy,
                "transfer_share": (serdes + software) / busy,
            }
        out[wf_name] = row
    return out


def fig5_serialization_share(scale: Optional[float] = None):
    """Fig 5: (de)serialization share with zero software overhead."""
    return fig3_transfer_share(scale, null_network=True)


# --- Fig 14: end-to-end latency across all transports -------------------------------

def fig14_end_to_end(scale: Optional[float] = None
                     ) -> Dict[str, Dict[str, float]]:
    """Mean E2E latency (ms) of every workflow under every transport."""
    return {wf_name: _latency_ms(builder, params, STANDARD_TRANSPORTS)
            for wf_name, (builder, params)
            in workflow_configs(scale).items()}


# --- Fig 13: sensitivity analyses ------------------------------------------------------

def _rdma_vs_rmmap(builder: Callable[[], Workflow],
                   params: dict) -> Dict[str, float]:
    """One Fig 13a-c point: E2E latency (ms) under storage (RDMA) and
    under RMMAP (the full system, prefetch on), and RMMAP's relative
    improvement."""
    ms = _latency_ms(builder, params, ("storage-rdma", "rmmap-prefetch"))
    rdma, rmmap = ms["storage-rdma"], ms["rmmap-prefetch"]
    return {"storage-rdma": rdma, "rmmap": rmmap,
            "improvement": 1.0 - rmmap / rdma}


def fig13a_epochs(epochs_list: Optional[List[int]] = None,
                  scale: Optional[float] = None
                  ) -> Dict[int, Dict[str, float]]:
    """ML-training latency vs epochs: longer functions amortize
    (de)serialization, shrinking RMMAP's edge (23.9% -> 8% in the paper)."""
    s = bench_scale() if scale is None else scale
    n_images = scaled(10_000, s, minimum=8_000)
    return {epochs: _rdma_vs_rmmap(
                build_ml_training,
                {"n_images": n_images, "epochs": epochs, "n_trees": 32})
            for epochs in epochs_list or [5, 10, 20, 30]}


def fig13b_payload(image_counts: Optional[List[int]] = None
                   ) -> Dict[int, Dict[str, float]]:
    """ML-training latency vs transferred tensor size (non-monotone
    improvement: more data costs more to (de)serialize but also extends
    function execution)."""
    image_counts = image_counts or [scaled(n, minimum=2_000)
                                    for n in (10_000, 20_000, 40_000)]
    return {n_images: _rdma_vs_rmmap(
                build_ml_training,
                {"n_images": n_images, "epochs": 10, "n_trees": 32})
            for n_images in image_counts}


def fig13c_width(widths: Optional[List[int]] = None
                 ) -> Dict[int, Dict[str, float]]:
    """ML-prediction latency vs workflow width (parallel predictors)."""
    n_images = scaled(1_280, minimum=128)
    return {width: _rdma_vs_rmmap(
                lambda: build_ml_prediction(width=width),
                {"n_images": n_images, "predict_width": width,
                 "n_trees": 32})
            for width in widths or [4, 8, 16]}


def fig13d_java(scale: Optional[float] = None) -> Dict[str, float]:
    """Java WordCount under every transport (Section 5.7)."""
    s = bench_scale() if scale is None else scale
    params = {"n_bytes": scaled(13 << 20, s, minimum=256 << 10),
              "map_width": 8}
    return _latency_ms(lambda: build_wordcount(width=8, runtime="java"),
                       params, STANDARD_TRANSPORTS)

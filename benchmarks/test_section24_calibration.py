"""Section 2.4 calibration: the quoted (de)serialization costs.

Paper quotes reproduced on our substrate:

* a ~3 MB dataframe decomposes into hundreds of thousands of sub-objects
  (401,839 in the paper) and takes ~10 ms to serialize;
* deserializing it takes longer still (~12 ms);
* a 4 MB single-thread copy takes ~2.5 ms (1.6 GB/s).
"""

from .conftest import run_row


def test_section24(benchmark):
    result = run_row(benchmark, "calibration")

    # hundreds of thousands of sub-objects, like the paper's dataframe
    assert result["sub_objects"] > 200_000
    # serialize ~10 ms, deserialize slower, within loose bands
    assert 4.0 < result["serialize_ms"] < 30.0
    assert result["deserialize_ms"] > result["serialize_ms"] * 0.9
    assert 2.0 < result["copy_4mb_ms"] < 3.0

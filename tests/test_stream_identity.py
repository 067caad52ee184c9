"""One digest over the library's random streams.

The digest covers ``rearrange_bits_block``'s outputs and generator states,
the junta and psym verdicts, one sampler batch and one ``iso_test`` run, so a
speed-up that moves any output, verdict field or draw shows here.
"""

import hashlib

import numpy as np

import psymtest as pt
from psymtest._bits import mask_from_indices, random_masks_u64, rearrange_bits_block
from psymtest.sampling import SamplerHandle, draw_core_samples_batch

STREAM_DIGEST = "ad2b2ed888fc9e6662d1dc66fdfd1e9c32ab009c1a3d48606129c38e53e29313"


def _state(rng: np.random.Generator) -> bytes:
    return repr(sorted(rng.bit_generator.state["state"].items())).encode()


def _masks(n: int) -> dict[str, int]:
    """Every variable, every fifth one, and the top word (the top half of
    the variables when there is one word)."""
    low = 64 * ((n - 1) // 64) or n // 2
    return {
        "full": (1 << n) - 1,
        "sparse": mask_from_indices(range(1, n, 5)),
        "top": ((1 << n) - 1) ^ ((1 << low) - 1),
    }


def _verdict(v: pt.TestVerdict) -> bytes:
    fields = (v.accepted, v.queries, v.found_parts, v.partition.parts, v.workspace, v.failure_reason, v.speculative)
    return repr(fields).encode()


def _stream_digest() -> str:
    h = hashlib.sha256()
    for n in (8, 64, 65, 130, 256):
        for name, mask in _masks(n).items():
            for b in (1, 64, 191, 192, 1000, 16384):
                rng = np.random.default_rng([n, b, len(name)])
                xs = random_masks_u64(n, b, rng)
                h.update(rearrange_bits_block(xs, mask, rng).tobytes() + _state(rng))
    for n in (24, 65, 130):
        for seed in range(4):
            member = pt.random_core_spec(n, 2, np.random.default_rng(seed))
            far = pt.KLinear(n, (0, n // 2, n - 1))
            for f in (member, far):
                for test in (pt.junta_test, pt.partially_symmetric_test):
                    rng = np.random.default_rng(100 + seed)
                    h.update(_verdict(test(f, 2, 0.1, rng)) + _state(rng))
    rng = np.random.default_rng(7)
    f = pt.random_core_spec(24, 1, rng)
    handle = SamplerHandle(f, pt.random_partition(24, 9, rng), 0, (1,))
    for a in draw_core_samples_batch(handle, 500, rng):
        h.update(a.tobytes())
    h.update(_state(rng))
    spec = pt.random_core_spec(24, 2, rng)
    g = spec.permuted(pt.Permutation.random(24, rng))
    h.update(_verdict(pt.iso_test(spec, g, 0.1, rng)) + _state(rng))
    return h.hexdigest()


def test_random_streams_match_the_pinned_digest():
    """Outputs, verdict fields and generator states of the streams above.

    A change that moves this digest changes what the library draws or
    returns; pin the new value only together with a CHANGES.md entry that
    names the stream that moved.
    """
    assert _stream_digest() == STREAM_DIGEST

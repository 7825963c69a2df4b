"""End-to-end crossbar array: deterministic addressing to electrical reads.

The complete pipeline on one sampled crossbar instance:

1. give every wire of a half cave a deterministic address, the pattern
   word on the address mesowires — the paper's novelty over stochastic
   decoders;
2. program crosspoints through the decoders, skipping wires the sampled
   instance lost to threshold drift or contact boundaries;
3. sense bits back *electrically* — each read solves the cave-sized
   resistor bank and classifies the current with dual-reference sensing.

Run:  python examples/end_to_end_array.py
"""

import numpy as np

from repro import CrossbarSpec, make_code
from repro.crossbar import CrossbarArray
from repro.decoder import address_of_nanowire


def main() -> None:
    spec = CrossbarSpec()
    code = make_code("BGC", 2, 10)
    array = CrossbarArray(spec, code, seed=11)

    s = array.summary()
    print(f"Sampled instance   : {s['shape'][0]} x {s['shape'][1]} crosspoints")
    print(f"Accessible         : {100 * s['accessible_fraction']:.1f}%")
    print(f"Bank granularity   : {s['bank_wires']} wires (one cave)")

    print("\nDeterministic addresses of the first wires of a half cave:")
    for wire in range(5):
        word = "".join(str(d) for d in address_of_nanowire(code, wire))
        print(f"  wire {wire} -> word {word}")

    # program a small block and read it back electrically
    rng = np.random.default_rng(2)
    rows, cols = np.meshgrid(np.arange(8), np.arange(8))
    bits = rng.integers(0, 2, rows.shape).astype(bool)
    written = array.write_pattern(rows, cols, bits)
    print(f"\nProgrammed {written} of {bits.size} crosspoints "
          "(the rest lost to fabrication)")

    correct = 0
    total = 0
    for r, c, b in zip(rows.ravel(), cols.ravel(), bits.ravel()):
        if array.is_accessible(int(r), int(c)):
            total += 1
            if array.read_bit(int(r), int(c)) == bool(b):
                correct += 1
    print(f"Electrical read-back: {correct}/{total} bits correct")

    r, c = next(
        (r, c)
        for r in range(array.shape[0])
        for c in range(array.shape[1])
        if array.is_accessible(r, c)
    )
    print(f"Sense margin at ({r}, {c}): "
          f"{100 * array.read_margin(r, c):.1f}% of the ON current")


if __name__ == "__main__":
    main()

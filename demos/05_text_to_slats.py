"""The whole pipeline: text to bits to slat positions and back.

A Huffman code compresses the text to nearly fair bits; the matcher
parses those bits into slat triples whose empirical statistics approach
the cost-constrained optimum. The bit count rides along so decoding can
strip the padding and recover the text exactly.
"""
from dymatch import run_facade, unmatch_symbols, decompress_bits
from dymatch.facade import (SLAT_COSTS, SLAT_COUNT, SLOT_WIDTH,
                            matcher_code, source_code)

TEXT = "the fundamental problem of communication is that of reproducing" \
       " at one point either exactly or approximately a message" \
       " selected at another point"

src = source_code()
mat = matcher_code()

res = run_facade(TEXT, src, mat, SLAT_COSTS)
print(f"text: {len(TEXT)} characters")
print(f"bits: {res.bit_count} ({res.bit_count / len(TEXT):.2f} per char)")
print(f"slats: {len(res.symbols)} (pad {res.pad_bits} bits)")
print()
print(res.symbols)
print()
st = res.stats
print(f"frequencies l/r/m: {[round(p, 4) for p in st.effective_freqs]}")
print(f"average width: {st.effective_cost:.5f} m "
      f"({st.shadowing:.1%} of the {SLOT_WIDTH} m slot)")
print(f"bit balance: {st.bit_balance:.3f} zeros")

back = decompress_bits(unmatch_symbols(res.symbols, mat, res.bit_count), src)
assert back == TEXT
print("\ndecoded text matches the input")

# Fitting a fixed wall: the message repeats, cut at the full slat count.
wall = run_facade(TEXT, src, mat, SLAT_COSTS, slat_budget=SLAT_COUNT)
print(f"\nfitted to the {SLAT_COUNT}-slat wall: {len(wall.symbols)} slats, "
      f"average width {wall.stats.effective_cost:.5f} m")

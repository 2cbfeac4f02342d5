"""Fixed reference work that measures how fast the machine runs right now.

run.py starts this in a fresh interpreter between the commands it times and
divides each command's time by the reference time around it (see run.py).
It is a truncated product of two rational series, the operation ramlab
spends most of its time in, and it imports nothing from ramlab, so no
change to the program under test can move it.
"""

from fractions import Fraction

N = 170
a = [Fraction(k, 2 * k + 1) for k in range(1, N + 1)]
b = [Fraction(2 * k - 1, k * k + 1) for k in range(1, N + 1)]
out = [Fraction(0)] * N
for i, x in enumerate(a):
    for j in range(N - i):
        out[i + j] += x * b[j]

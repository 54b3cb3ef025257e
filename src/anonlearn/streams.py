"""A run's random streams, and the one place that turns PCG64 words into
draws as numpy does.

Seeding layout: agent i draws from default_rng([seed, 0, i]) for its whole
lifetime (so changing n never reshuffles other agents' draws), the matching
shuffle from default_rng([seed, 1]), and churn (a coin per slot, then a base
after each hit) from default_rng([seed, 2]).  None of these Generators but the
matcher's is made: numpy's PCG64 (a 128-bit LCG with the XSL-RR output) and its
SeedSequence seeding are integer arithmetic on uint32 and uint64 arrays, a
128-bit value a (hi, lo) pair of uint64 arrays.  AgentStreams computes all n
agents' streams at once, bit for bit, and RawStream churn's raw words, from
which apply_churn draws a coin per entry it is handed and only the hits' bases."""

from __future__ import annotations

import operator

import numpy as np

from .core import _number

# Working memory: the streams advance L = min(AHEAD, max(1, UCAP // n)) rounds
# of all n agents at a time, at most UCAP stream positions unless n is larger
# (longer lanes save next to nothing per draw, and cost memory).  That is six
# (L, n) arrays of 8-byte words: the lanes' two words, three scratch arrays
# for the refill arithmetic and the uniforms (a RawStream refill: five per word).
UCAP = 1 << 13
AHEAD = 128
_K = "[2, 4294967296)"  # a draw's range: Lemire's method on 32-bit words
MULT, MASK = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1  # PCG64's multiplier


def _seed_state(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, np.uint64), as four uint64s or
    arrays: entropy[0], the seed, enters as its little-endian uint32 words and
    each later entry as one word (an array as one per element, one SeedSequence
    each); the first four words fill the pool, later ones are mixed in after."""
    seed = operator.index(_number(entropy[0], "seed", "[0, inf)", integer=True))
    words = [np.uint32(seed >> s & 0xFFFFFFFF) for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [np.asarray(e, np.uint32) for e in entropy[1:]]
    const = [0x43B0D7E5, 0x931E8875]  # hashmix's running constant and its multiplier

    def hashmix(value):
        value = value ^ const[0]
        const[0] = const[0] * const[1] & 0xFFFFFFFF
        value = value * const[0]
        return value ^ value >> 16

    with np.errstate(over="ignore"):  # uint32 scalars warn where arrays wrap silently
        pool = [hashmix(w) for w in (words + [np.uint32(0)] * 4)[:4]]
        for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d] + [
                (4 + w, d) for w in range(4, len(words)) for d in range(4)]:
            x = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix((pool + words)[src])
            pool[dst] = x ^ x >> 16
        const[:] = [0x8B51F9DD, 0x58F38DED]
        out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return [out[2 * j] | out[2 * j + 1] << 32 for j in range(4)]


def _words(values: list) -> np.ndarray:
    """128-bit ints as a (2, len) array of their (hi, lo) uint64 words."""
    return np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values),
                         np.uint64).reshape(-1, 2)[:, ::-1].T


# M**j and M**(j-1) + ... + 1 for j = 1..AHEAD, as ints and as (2, AHEAD) words,
# built once for every stream: j steps take s to M**j·s + (M**(j-1) + ... + 1)·inc.
POWERS, SUMS = [MULT], [1]
while len(POWERS) < AHEAD:
    POWERS.append(POWERS[-1] * MULT & MASK)
    SUMS.append(SUMS[-1] * MULT + 1 & MASK)
POWER_WORDS, SUM_WORDS = _words(POWERS), _words(SUMS)


def _mul_add(a, b, c, out, tmp):
    """out = a·b + c mod 2**128, where a, b, c and out are (hi, lo) pairs of
    uint64 arrays broadcast to out's shape, a is small (a constant) and tmp is
    three scratch arrays of that shape.  out may be b or c; nothing else may
    overlap it or tmp.  The low words' 64x64 -> 128-bit product is taken on
    32-bit halves, and no array as large as out is allocated."""
    (ah, al), (bh, bl), (ch, cl), (h, l), (x, y, z) = a, b, c, out, tmp
    a0, a1 = al & 0xFFFFFFFF, al >> 32
    np.multiply(bh, al, out=z)  # z: the high word's terms
    z += np.multiply(bl, ah, out=x)
    z += ch  # b's and c's high words are not read after this, so h is free
    np.bitwise_and(bl, 0xFFFFFFFF, out=x)  # b0
    np.right_shift(np.multiply(x, a0, out=y), 32, out=y)
    y += np.multiply(x, a1, out=x)  # t = (a0·b0 >> 32) + a1·b0
    np.right_shift(bl, 32, out=x)  # b1
    z += np.multiply(x, a1, out=h)
    z += np.right_shift(y, 32, out=h)
    y &= 0xFFFFFFFF
    y += np.multiply(x, a0, out=x)  # w = (t & 0xFFFFFFFF) + a0·b1
    z += np.right_shift(y, 32, out=y)
    np.multiply(bl, al, out=x)  # the low word before the carry
    np.add(x, cl, out=l)
    np.add(z, np.less(l, x, out=y), out=h)
    return out


def _output(h, l, out, tmp):
    """PCG64's XSL-RR output of each state, into out: hi ^ lo rotated right by
    hi >> 58.  tmp is two scratch arrays of out's shape."""
    r, s = tmp
    np.bitwise_xor(h, l, out=out)
    np.right_shift(h, 58, out=r)
    np.bitwise_and(np.negative(r, out=s), 63, out=s)
    np.left_shift(out, s, out=s)
    np.right_shift(out, r, out=out)
    out |= s
    return out


class AgentStreams:
    """The streams of agents 0..n-1 under one run seed, time-major: column i
    of take(rounds) is agent i's next rounds random() values.  The next L
    states of every agent ("lanes") are kept, and a refill advances them all
    L steps at once: s -> M**L·s + (M**(L-1) + ... + 1)·inc, M being PCG64's
    multiplier."""

    def __init__(self, seed: int, n: int):
        lead = min(AHEAD, max(1, UCAP // n))  # L: the table's columns j = 1..L
        self._powers, self._sums = POWER_WORDS[:, :lead, None], SUM_WORDS[:, :lead, None]
        v0, v1, v2, v3 = _seed_state([seed, 0, np.arange(n, dtype=np.uint32)])
        self._inc = (v2 << 1 | v3 >> 63, v3 << 1 | 1)
        # numpy's seeding: the state is inc + v0·2**64 + v1, stepped once
        h, l = self._inc[0] + v0, self._inc[1] + v1
        h += l < v1
        self._state = _mul_add(self._powers[:, 0], (h, l), self._inc, (h, l),
                               np.empty((3, n), np.uint64))
        self.n, self._lanes, self._u, self._pos = n, None, np.empty((0, n)), 0

    def integers(self, k: int, start: int) -> np.ndarray:
        """Generator.integers(k) for each of agents start..n-1, before any
        take: Lemire's method on the low 32 bits of the next output, retried
        on the upper half (which PCG64 buffers) and then on a fresh output.
        take starts at the next output, as random() does after integers."""
        _number(k, "k", _K, integer=True)
        if self._lanes is not None:
            raise ValueError("integers: must come before any take")
        (h, l), (ih, il) = self._state, self._inc
        out = np.empty(self.n - start, dtype=np.int64)
        todo, half = np.arange(start, self.n), None
        while todo.size:
            if half is None:
                s, tmp = (h[todo], l[todo]), np.empty((3, todo.size), np.uint64)
                h[todo], l[todo] = _mul_add(self._powers[:, 0], s, (ih[todo], il[todo]), s, tmp)
                x = _output(*s, tmp[0], tmp[1:])
                word, half = x & 0xFFFFFFFF, x >> 32
            else:
                word, half = half, None
            m = word * np.uint64(k)
            done = (m & 0xFFFFFFFF) >= ((1 << 32) - k) % k
            out[todo[done] - start] = m[done] >> 32
            todo = todo[~done]
            half = None if half is None else half[~done]
        return out

    def take(self, rounds: int) -> np.ndarray:
        """The next rounds uniforms of every agent, (rounds, n): a view valid
        until the next take, or a new array when they straddle refills."""
        out, r = self._u[:0], 0
        while r < rounds:
            if self._pos == len(self._u):  # refill
                if self._lanes is None:  # lane j: M**j·s + (M**(j-1) + ... + 1)·inc
                    shape = (self._powers.shape[1], self.n)
                    self._tmp = np.empty((3, *shape), np.uint64)
                    lanes = _mul_add(self._powers, self._state, (0, 0),
                                     np.empty((2, *shape), np.uint64), self._tmp)
                    self._lanes = _mul_add(self._sums, self._inc, lanes, lanes, self._tmp)
                    self._step = _mul_add(self._sums[:, -1], self._inc, (0, 0),
                                          np.empty((2, self.n), np.uint64), self._tmp[:, 0])
                    self._u = np.empty(shape)
                else:
                    _mul_add(self._powers[:, -1], self._lanes, self._step, self._lanes,
                             self._tmp)
                x = _output(*self._lanes, self._tmp[0], self._tmp[1:])
                np.multiply(np.right_shift(x, 11, out=x), 2.0**-53, out=self._u)
                self._pos = 0
            c = min(rounds - r, len(self._u) - self._pos)
            part, self._pos = self._u[self._pos : self._pos + c], self._pos + c
            if c == rounds:  # all from this refill
                return part
            out = np.empty((rounds, self.n)) if r == 0 else out
            out[r : r + c], r = part, r + c
        return out


class RawStream:
    """default_rng(entropy).bit_generator.random_raw()'s words, in order.  A
    refill computes AHEAD words from each of several block starts S at once,
    word j of a block from M**j·S + (M**(j-1) + ... + 1)·inc.  half carries
    numpy's buffered 32-bit half for the caller: a word's upper half, or None."""

    def __init__(self, entropy: list):
        v0, v1, v2, v3 = map(int, _seed_state(entropy))
        inc = (v2 << 64 | v3) << 1 & MASK | 1
        self._state = ((inc + (v0 << 64 | v1)) * MULT + inc) & MASK  # numpy's seeding
        self._jump = POWERS[-1], SUMS[-1] * inc & MASK  # AHEAD steps
        self._table = POWER_WORDS, _words([v * inc & MASK for v in SUMS])
        self._words, self.half = np.empty(0, np.uint64), None

    def peek(self, count: int) -> np.ndarray:
        """The next count words, unconsumed: a view valid until the next call."""
        if count > self._words.size:
            starts = [self._state]  # a loop on ints, a block at a time
            for _ in range(-(-(count - self._words.size) // AHEAD)):
                starts.append(starts[-1] * self._jump[0] + self._jump[1] & MASK)
            self._state = starts.pop()
            tmp = np.empty((5, len(starts), AHEAD), np.uint64)
            _mul_add(self._table[0], _words(starts)[..., None], self._table[1], tmp[:2], tmp[2:])
            x = _output(tmp[0], tmp[1], tmp[2], tmp[3:])
            self._words = np.concatenate([self._words, x.reshape(-1)])
        return self._words[:count]

    def skip(self, count: int):
        """Consume the next count words."""
        self.peek(count)
        self._words = self._words[count:]


def apply_churn(bases, rate: float, stream, k: int | None = None) -> np.ndarray:
    """Replace each entry of bases independently with probability rate, and
    return the replaced indices.  Given k, a replaced entry gets a uniform
    base in range(k) drawn from stream right after its coin, written into
    bases; otherwise the caller resets its state.

    The draws, and the stream's words and half after, are a loop's on its
    Generator: rng.random() per entry, rng.integers(k) on a hit.  A coin is
    (word >> 11)·2**-53, so one compare on a block of words finds the hits;
    a base is Lemire's method on 32-bit words, stream.half or else the low half
    of the next word (its high half left in stream.half, so later coins shift).
    """
    _number(rate, "rate", "[0, 1]")
    m = len(bases)
    if k is None:
        hits = np.flatnonzero((stream.peek(m) >> 11) * 2.0**-53 < rate)
        stream.skip(m)
        return hits
    _number(k, "k", _K, integer=True)
    raw, hits, out, half = stream.peek(0), [], [], stream.half

    def read(end):  # words through raw[end], and which of them are hits as coins
        nonlocal raw
        if end >= raw.size:
            more = stream.peek(end + int(rate * m) + 16)
            coins = (more[raw.size:] >> 11) * 2.0**-53
            hits.extend((raw.size + np.flatnonzero(coins < rate)).tolist())
            raw = more

    pos, slot, bar = 0, 0, ((1 << 32) - k) % k  # raw[pos] is slot's coin
    read(m)  # every coin
    for q in hits:  # read() appends to hits as the walk goes on
        if not pos <= q < pos + m - slot:  # a word a base used, or past the last coin
            continue
        slot, pos, lo = slot + q - pos + 1, q + 1, -1
        out.append(slot - 1)
        while lo < bar:
            if half is not None:
                word, half = half, None
            else:
                read(pos + m - slot)  # this word, and every coin left after it
                word, half, pos = int(raw[pos]) & 0xFFFFFFFF, int(raw[pos]) >> 32, pos + 1
            hi, lo = divmod(word * k, 1 << 32)
        bases[out[-1]] = hi
    stream.skip(pos + m - slot)
    stream.half = half
    return np.array(out, dtype=np.int64)

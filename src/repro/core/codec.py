"""The signature codec: which generator signs a set.

The embedding of Sections 3.1 + 3.2 stores each set as its **codes**:
the ``k`` values of its signature reduced to ``b`` bits (the paper's
fixed-precision step), one ``uint8`` each (``uint16`` when ``b > 8``).
The packed ``D = 2**b * k``-bit Hamming vector is the Hadamard code of
those codes and is derived on demand
(:class:`~repro.core.ecc.HadamardCode`), never stored.  The one choice
left is the **generator** producing the length-``k`` value signature:

* ``minhash`` -- the paper's universal-hash MinHash (canonical name
  ``"full64"``, the Hadamard-coded embedding of Section 3.2);
* ``superminhash`` -- Ertl's lower-variance drop-in, arXiv:1706.05698.

A codec *spec string* names the generator, optionally joined with
``full64`` (``"superminhash+full64"`` is ``"superminhash"``).
:func:`parse_codec` normalizes a spec into a :class:`CodecSpec`; any
other spec -- including the b-bit packings earlier snapshots could
name -- raises :class:`CodecError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.minhash import MinHasher, SuperMinHasher


class CodecError(ValueError):
    """Unknown or malformed signature-codec spec string."""


#: Generators a codec spec may name.
GENERATORS = ("minhash", "superminhash")


@dataclass(frozen=True)
class CodecSpec:
    """A parsed, normalized signature codec.

    Attributes
    ----------
    name:
        Canonical spec string: ``"full64"`` or ``"superminhash"``.
    generator:
        ``"minhash"`` or ``"superminhash"``.
    """

    name: str
    generator: str

    def bias_bits(self, b: int) -> int:
        """The ``b`` to feed Theorem-1 conversions and the optimizer:
        every codec keeps the Hadamard fixed-precision collision bias
        (``2**-b`` per disagreeing slot)."""
        return b


def parse_codec(spec: "str | CodecSpec") -> CodecSpec:
    """Parse and normalize a codec spec string.

    Accepts ``"full64"``, ``"minhash"``, ``"superminhash"`` and a
    generator joined with ``full64`` by ``+`` in either order.  Raises
    :class:`CodecError` (a ``ValueError``) for anything else --
    snapshot open wraps this into a typed ``SnapshotFormatError`` so
    stale tooling fails loudly.
    """
    if isinstance(spec, CodecSpec):
        return spec
    if not isinstance(spec, str):
        raise CodecError(f"codec spec must be a string, got {type(spec).__name__}")
    parts = [p.strip() for p in spec.lower().split("+")]
    if not spec.strip() or any(not p for p in parts):
        raise CodecError(f"malformed codec spec: {spec!r}")
    generators = [p for p in parts if p in GENERATORS]
    unknown = [p for p in parts if p not in GENERATORS and p != "full64"]
    if unknown:
        raise CodecError(f"unknown codec spec: {spec!r}")
    if len(generators) > 1 or len(parts) - len(generators) > 1:
        raise CodecError(f"codec spec names a part twice: {spec!r}")
    generator = generators[0] if generators else "minhash"
    name = "full64" if generator == "minhash" else generator
    return CodecSpec(name=name, generator=generator)


def make_hasher(generator: str, k: int, seed: int):
    """Instantiate the signature generator a codec names."""
    if generator == "minhash":
        return MinHasher(k=k, seed=seed)
    if generator == "superminhash":
        return SuperMinHasher(k=k, seed=seed)
    raise CodecError(f"unknown signature generator: {generator!r}")

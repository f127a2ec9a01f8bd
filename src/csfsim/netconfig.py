"""Network description files: a line-oriented [layer] section format.

Each section starts with a "[layer]" header line and carries key=value
pairs. Conv layers need name, type, in_channels, in_height, in_width,
kernel, stride, pad and filters; fc layers need only name, type,
in_channels, in_height, in_width and filters, since their kernel, stride
and padding are fixed by definition. '#' starts a comment, blank lines are
ignored, and every diagnostic carries the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .layers import LayerSpec, output_shape

_COMMON_KEYS = ("name", "type", "in_channels", "in_height", "in_width",
                "filters")
_CONV_ONLY_KEYS = ("kernel", "stride", "pad")
_ALL_KEYS = frozenset(_COMMON_KEYS + _CONV_ONLY_KEYS)
_INT_KEYS = frozenset(_ALL_KEYS - {"name", "type"})


class ConfigError(ValueError):
    """Malformed network config; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered, uniquely named layer list parsed from one config file."""

    layers: tuple[LayerSpec, ...]

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


def _build_layer(fields: dict, header_line: int, lines: dict) -> LayerSpec:
    if "type" not in fields:
        raise ConfigError("section is missing key 'type'", header_line)
    kind = fields["type"]
    if kind not in ("conv", "fc"):
        raise ConfigError(f"unknown type {kind!r}", lines["type"])
    required = _COMMON_KEYS + (_CONV_ONLY_KEYS if kind == "conv" else ())
    for key in required:
        if key not in fields:
            raise ConfigError(f"section is missing key {key!r}", header_line)
    if kind == "fc":
        for key in _CONV_ONLY_KEYS:
            if key in fields:
                raise ConfigError(f"key {key!r} is not allowed for fc layers",
                                  lines[key])
    try:
        layer = LayerSpec(
            name=fields["name"],
            kind=kind,
            channels=fields["in_channels"],
            height=fields["in_height"],
            width=fields["in_width"],
            kernel=fields.get("kernel", 1),
            stride=fields.get("stride", 1),
            pad=fields.get("pad", 0),
            filters=fields["filters"],
        )
        output_shape(layer)  # rejects a kernel wider than the padded input
    except ValueError as exc:
        raise ConfigError(str(exc), header_line) from exc
    return layer


def parse_network_config(text) -> NetworkConfig:
    """Parse config text (str or bytes) into a NetworkConfig."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    layers = []
    names = {}
    fields: dict | None = None
    field_lines: dict = {}
    header_line = 0

    def finish():
        if fields is None:
            return
        layer = _build_layer(fields, header_line, field_lines)
        if layer.name in names:
            raise ConfigError(
                f"duplicate layer name {layer.name!r} "
                f"(first defined near line {names[layer.name]})",
                field_lines["name"],
            )
        names[layer.name] = field_lines["name"]
        layers.append(layer)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[layer]":
            finish()
            fields, field_lines, header_line = {}, {}, lineno
            continue
        if line.startswith("["):
            raise ConfigError(f"unknown section header {line!r}", lineno)
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", lineno)
        if fields is None:
            raise ConfigError("key=value before any [layer] header", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise ConfigError(f"duplicate key {key!r} in section", lineno)
        if key in _INT_KEYS:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(
                    f"key {key!r} needs an integer, got {value!r}", lineno
                ) from None
        fields[key] = value
        field_lines[key] = lineno
    finish()
    return NetworkConfig(tuple(layers))


def render_network_config(config: NetworkConfig) -> str:
    """Canonical text form; parse(render(c)) == c, else ValueError.

    A name holding '#' or a line break, or with outer blanks, is refused,
    as are a repeated name and a kernel wider than its padded input.
    """
    chunks = []
    names = set()
    for layer in config:
        # the parser splits lines, cuts each at '#' and strips its value
        if ("#" in layer.name or layer.name.strip() != layer.name
                or (layer.name + "\n").splitlines() != [layer.name]):
            raise ValueError(
                f"layer name {layer.name!r} would not parse back to itself")
        if layer.name in names:
            raise ValueError(f"duplicate layer name {layer.name!r}")
        names.add(layer.name)
        output_shape(layer)  # the parser rejects an oversize kernel too
        lines = [
            "[layer]",
            f"name = {layer.name}",
            f"type = {layer.kind}",
            f"in_channels = {layer.channels}",
            f"in_height = {layer.height}",
            f"in_width = {layer.width}",
        ]
        if layer.kind == "conv":
            lines += [
                f"kernel = {layer.kernel}",
                f"stride = {layer.stride}",
                f"pad = {layer.pad}",
            ]
        lines.append(f"filters = {layer.filters}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def load_network_config(path) -> NetworkConfig:
    """Read and parse a config file from disk."""
    return parse_network_config(Path(path).read_text(encoding="utf-8"))

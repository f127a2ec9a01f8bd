"""Network description files: a line-oriented [layer] section format.

Each section starts with a "[layer]" header line and carries one
key=value pair per key of `_KEYS`. Conv layers need every key; fc layers
need all but `_CONV_ONLY_KEYS`, since their kernel, stride and padding
are fixed by definition. '#' starts a comment, blank lines are ignored,
and every diagnostic carries the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .layers import LayerSpec

# config key -> (LayerSpec field, value type), in the order render writes
# them and the bundled files use; parsing, its checks and rendering all
# read this one table
_KEYS = {
    "name": ("name", str),
    "type": ("kind", str),
    "in_channels": ("channels", int),
    "in_height": ("height", int),
    "in_width": ("width", int),
    "kernel": ("kernel", int),
    "stride": ("stride", int),
    "pad": ("pad", int),
    "filters": ("filters", int),
}
_CONV_ONLY_KEYS = ("kernel", "stride", "pad")


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


def _build_layer(fields: dict, header_line: int, lines: dict) -> LayerSpec:
    if "type" not in fields:
        raise ConfigError("section is missing key 'type'", header_line)
    kind = fields["type"]
    if kind not in ("conv", "fc"):
        raise ConfigError(f"unknown type {kind!r}", lines["type"])
    # the keys every layer needs, in table order, then the conv-only ones
    for key in _KEYS:
        if key not in _CONV_ONLY_KEYS and key not in fields:
            raise ConfigError(f"section is missing key {key!r}", header_line)
    for key in _CONV_ONLY_KEYS:
        if kind == "conv" and key not in fields:
            raise ConfigError(f"section is missing key {key!r}", header_line)
        if kind == "fc" and key in fields:
            raise ConfigError(f"key {key!r} is not allowed for fc layers",
                              lines[key])
    try:
        # an fc layer's absent keys need only a placeholder: LayerSpec
        # fixes its kernel, stride and pad
        return LayerSpec(**{field: fields.get(key)
                            for key, (field, _) in _KEYS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc), header_line) from exc


def parse_network_config(text: str) -> NetworkConfig:
    """Parse config text into a NetworkConfig."""
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
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise ConfigError(f"duplicate key {key!r} in section", lineno)
        if _KEYS[key][1] is int:
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
    as is a repeated name.
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
        chunks.append("\n".join(["[layer]"] + [
            f"{key} = {getattr(layer, field)}"
            for key, (field, _) in _KEYS.items()
            if layer.kind == "conv" or key not in _CONV_ONLY_KEYS]))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def load_network_config(path) -> NetworkConfig:
    """Read and parse a config file from disk."""
    return parse_network_config(Path(path).read_text(encoding="utf-8"))

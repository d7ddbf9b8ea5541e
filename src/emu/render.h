// Headless rendering of emulator snapshots (the content of paper Fig. 3,
// without the GUI): ASCII maps for terminals/tests and PPM images for
// reports.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "common/geometry.h"
#include "sim/topology.h"

namespace tota::emu {

/// Glyph chosen per node; return '\0' to use the default '*'.
using GlyphFn = std::function<char(NodeId)>;

/// Renders node positions inside `arena` onto a width×height character
/// grid.  Multiple nodes in one cell show the last one drawn (node-id
/// order).  Rows are returned top-down (max y first), newline-separated.
std::string ascii_map(const sim::Topology& topology, Rect arena, int width,
                      int height, const GlyphFn& glyph = nullptr);

/// RGB color per node for PPM rendering.
using ColorFn = std::function<std::array<std::uint8_t, 3>(NodeId)>;

/// Writes a binary PPM (P6) image of the node layout; each node paints a
/// 3×3 dot.  Returns false if the file could not be written.
bool write_ppm(const std::string& path, const sim::Topology& topology,
               Rect arena, int width, int height,
               const ColorFn& color = nullptr);

}  // namespace tota::emu

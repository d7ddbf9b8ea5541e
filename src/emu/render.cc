#include "emu/render.h"

#include <algorithm>
#include <fstream>
#include <vector>

namespace tota::emu {

namespace {

/// Maps a world position to integer cell coordinates, clamped to bounds.
struct Mapper {
  Rect arena;
  int width;
  int height;

  [[nodiscard]] std::pair<int, int> cell(Vec2 p) const {
    const double fx = (p.x - arena.min.x) / std::max(arena.width(), 1e-9);
    const double fy = (p.y - arena.min.y) / std::max(arena.height(), 1e-9);
    const int cx =
        std::clamp(static_cast<int>(fx * width), 0, width - 1);
    const int cy =
        std::clamp(static_cast<int>(fy * height), 0, height - 1);
    return {cx, cy};
  }
};

}  // namespace

std::string ascii_map(const sim::Topology& topology, Rect arena, int width,
                      int height, const GlyphFn& glyph) {
  std::vector<std::string> rows(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width),
                                            '.'));
  const Mapper map{arena, width, height};
  for (const NodeId id : topology.nodes()) {
    const auto [cx, cy] = map.cell(topology.position(id));
    char g = glyph ? glyph(id) : '\0';
    if (g == '\0') g = '*';
    // Row 0 is the top of the map (max y).
    rows[static_cast<std::size_t>(height - 1 - cy)]
        [static_cast<std::size_t>(cx)] = g;
  }
  std::string out;
  for (const auto& row : rows) {
    out += row;
    out += '\n';
  }
  return out;
}

bool write_ppm(const std::string& path, const sim::Topology& topology,
               Rect arena, int width, int height, const ColorFn& color) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  std::vector<std::array<std::uint8_t, 3>> pixels(
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
      {20, 20, 28});
  const Mapper map{arena, width, height};
  for (const NodeId id : topology.nodes()) {
    const auto [cx, cy] = map.cell(topology.position(id));
    const auto rgb =
        color ? color(id) : std::array<std::uint8_t, 3>{240, 240, 240};
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int px = cx + dx;
        const int py = height - 1 - cy + dy;
        if (px < 0 || px >= width || py < 0 || py >= height) continue;
        pixels[static_cast<std::size_t>(py) * static_cast<std::size_t>(width) +
               static_cast<std::size_t>(px)] = rgb;
      }
    }
  }
  file << "P6\n" << width << ' ' << height << "\n255\n";
  file.write(reinterpret_cast<const char*>(pixels.data()),
             static_cast<std::streamsize>(pixels.size() * 3));
  return static_cast<bool>(file);
}

}  // namespace tota::emu

#ifndef FACTORML_JOIN_ASSEMBLE_H_
#define FACTORML_JOIN_ASSEMBLE_H_

#include <cstring>
#include <vector>

#include "join/attribute_view.h"
#include "join/normalized_relations.h"
#include "storage/table.h"

namespace factorml::join {

/// Copies the joined feature vector [XS | XR1 | ... | XRq] of row `r` of a
/// streamed S batch into `out` (length rel.total_dims()), skipping the
/// target column when present. This is the "join on the fly" concatenation
/// performed by the S-algorithms for every tuple — pure data movement, no
/// floating-point work, but repeated for every fact tuple, which is the
/// redundancy the F-algorithms avoid.
inline void AssembleJoinedRow(const NormalizedRelations& rel,
                              const storage::RowBatch& s_rows, size_t r,
                              const std::vector<AttributeTableView>& views,
                              double* out) {
  const size_t y_off = rel.has_target ? 1 : 0;
  const size_t ds = rel.ds();
  std::memcpy(out, s_rows.feats.Row(r).data() + y_off, sizeof(double) * ds);
  size_t off = ds;
  const int64_t* keys = s_rows.KeysOf(r);
  for (size_t i = 0; i < views.size(); ++i) {
    const auto xr = views[i].FeaturesOf(keys[rel.FkKeyIndex(i)]);
    std::memcpy(out + off, xr.data(), sizeof(double) * xr.size());
    off += xr.size();
  }
}

/// The strip form of AssembleJoinedRow for a whole streamed S batch:
/// writes the joined rows into `out` as column-major strips of
/// `strip_rows` rows, with the S columns first as stored (the target at
/// column 0 when present, then XS) followed by XR1 ... XRq. Every strip
/// column is written as one contiguous run — the S columns transposed
/// from the batch, each attribute column gathered through the rows'
/// foreign keys — so no row-major joined copy is ever built. With no
/// views it is the S-slice transpose alone, the F strategy's strips.
inline void AssembleJoinedStrips(const NormalizedRelations& rel,
                                 const storage::RowBatch& s_rows,
                                 const std::vector<AttributeTableView>& views,
                                 size_t strip_rows,
                                 storage::ColumnStrips* out) {
  const size_t s_cols = s_rows.feats.cols();
  size_t num_cols = s_cols;
  for (const auto& view : views) num_cols += view.feats().cols();
  out->Shape(strip_rows, s_rows.num_rows, num_cols, /*nkeys=*/0,
             s_rows.start_row);
  for (size_t s = 0; s < out->num_strips; ++s) {
    const size_t r0 = out->StripStart(s);
    const size_t rows = out->RowsInStrip(s);
    for (size_t j = 0; j < s_cols; ++j) {
      double* dst = out->MutableCol(s, j);
      const double* src = s_rows.feats.data() + r0 * s_cols + j;
      for (size_t r = 0; r < rows; ++r) dst[r] = src[r * s_cols];
    }
    size_t off = s_cols;
    for (size_t i = 0; i < views.size(); ++i) {
      const la::Matrix& feats = views[i].feats();
      const size_t dri = feats.cols();
      const size_t key = rel.FkKeyIndex(i);
      for (size_t j = 0; j < dri; ++j) {
        double* dst = out->MutableCol(s, off + j);
        const double* src = feats.data() + j;
        for (size_t r = 0; r < rows; ++r) {
          const auto rid = static_cast<size_t>(s_rows.KeysOf(r0 + r)[key]);
          dst[r] = src[rid * dri];
        }
      }
      off += dri;
    }
  }
}

}  // namespace factorml::join

#endif  // FACTORML_JOIN_ASSEMBLE_H_

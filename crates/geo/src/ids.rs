//! Logical identifiers and the VC → hypercube → mesh mapping (paper §4.1).
//!
//! The paper defines four logical identifiers:
//!
//! * **CHID** — Cluster Head ID. One-to-one with the hypercube node id; in
//!   this implementation a CH is identified by the VC it heads, so the CHID
//!   *is* the [`VcId`].
//! * **HNID** — Hypercube Node ID: the node's bit-string label inside its
//!   logical hypercube ([`Hnid`]).
//! * **HID** — Hypercube ID: which logical hypercube (region) the node
//!   belongs to ([`Hid`]); many HNIDs map to one HID.
//! * **MNID** — Mesh Node ID: the hypercube's coordinate in the logical
//!   2-D mesh ([`Mnid`]); one-to-one with HID.
//!
//! "A simple function is used to map each CH to a hypercube node, using
//! system parameters such as central coordinate, length and width of the
//! whole network, diameter of VCs, and dimension of logical hypercubes"
//! (§4.1). [`RegionMap`] is that function.
//!
//! ## Label layout
//!
//! The layout of labels inside a region is reverse-engineered from the
//! paper's Fig. 3, which arranges a 4-dimensional hypercube over a 4×4 block
//! of VCs as
//!
//! ```text
//! 0000 0001 0100 0101
//! 0010 0011 0110 0111
//! 1000 1001 1100 1101
//! 1010 1011 1110 1111
//! ```
//!
//! i.e. the label is the **bit-interleaving** of the local row and column
//! indices (row bit, col bit, row bit, col bit, … from the most significant
//! bit). Under this layout the paper's published examples hold exactly:
//! node `1000`'s 1-logical-hop routes are `{0000, 0010, 1001, 1010, 1100}`
//! (its hypercube neighbours plus its grid-adjacent cells — the figure's
//! "additional logical links"), and `1000 → 1100 → 1101` is a 2-logical-hop
//! route. Unit tests below pin all of these.

use crate::grid::{VcGrid, VcId};
use serde::{Deserialize, Serialize};

/// Hypercube Node ID: a node's label inside its logical hypercube.
///
/// Only the low `dim` bits are meaningful; the dimension is carried by the
/// enclosing [`RegionMap`] (all hypercubes of a deployment share one
/// dimension, a system parameter: "We consider logical hypercubes with small
/// dimension, which is set as a system parameter", §4.1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Hnid(pub u32);

impl Hnid {
    /// Hamming distance to another label.
    #[inline]
    pub fn hamming(self, other: Hnid) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// Renders the label as a `dim`-bit binary string, as the paper writes
    /// them (e.g. `1000`).
    pub fn to_bits(self, dim: u8) -> String {
        (0..dim)
            .rev()
            .map(|i| if self.0 >> i & 1 == 1 { '1' } else { '0' })
            .collect()
    }

    /// Parses a binary label string such as `"1000"`.
    pub fn from_bits(s: &str) -> Option<Hnid> {
        u32::from_str_radix(s, 2).ok().map(Hnid)
    }
}

/// Hypercube ID: the (row, column) of the region in the region grid. Row 0
/// is the top-left region, matching Fig. 2.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Hid {
    /// Region row, from the top.
    pub row: u16,
    /// Region column, from the left.
    pub col: u16,
}

impl Hid {
    /// Creates a hypercube id.
    pub const fn new(row: u16, col: u16) -> Self {
        Hid { row, col }
    }

    /// The one-to-one mapped mesh node id (paper: "the relation between HID
    /// and MNID is one-to-one mapping").
    #[inline]
    pub const fn mnid(self) -> Mnid {
        Mnid {
            row: self.row,
            col: self.col,
        }
    }

    /// Manhattan distance in the mesh — the number of mesh-tier logical
    /// links a packet must cross between the two hypercubes.
    #[inline]
    pub fn mesh_distance(self, other: Hid) -> u32 {
        self.row.abs_diff(other.row) as u32 + self.col.abs_diff(other.col) as u32
    }
}

impl std::fmt::Display for Hid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H({},{})", self.row, self.col)
    }
}

/// Mesh Node ID: the hypercube's coordinate in the logical 2-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Mnid {
    /// Mesh row, from the top.
    pub row: u16,
    /// Mesh column, from the left.
    pub col: u16,
}

impl Mnid {
    /// The one-to-one mapped hypercube id.
    #[inline]
    pub const fn hid(self) -> Hid {
        Hid {
            row: self.row,
            col: self.col,
        }
    }
}

/// A full logical location: which hypercube, and which node inside it.
/// The paper: "the logical identifier of each logical node is also called
/// logical location".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogicalAddress {
    /// The hypercube (= mesh node) the CH belongs to.
    pub hid: Hid,
    /// The label inside that hypercube.
    pub hnid: Hnid,
}

impl std::fmt::Display for LogicalAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{:b}", self.hid, self.hnid.0)
    }
}

/// Classification of cluster heads (paper §4.1): a *Border* CH may have a
/// logical link into an adjacent logical hypercube and forwards traffic
/// among hypercubes; an *Inner* CH forwards only within its hypercube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChKind {
    /// Border Cluster Head.
    Border,
    /// Inner Cluster Head.
    Inner,
}

/// The mapping between VC grid cells and logical identifiers.
///
/// The VC grid is tiled by rectangular *regions* of `2^ceil(d/2)` rows by
/// `2^floor(d/2)` columns of VCs; the CHs of one region form one logical
/// `d`-dimensional hypercube ("The CHs located within a predefined region
/// build up a logical k-dimensional hypercube, which is probably an
/// incomplete hypercube", §3). Regions tile the grid left-to-right,
/// top-to-bottom; a grid that is not an exact multiple of the region size
/// simply yields incomplete hypercubes along the far edges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionMap {
    grid_rows: u16,
    grid_cols: u16,
    dim: u8,
    region_rows: u16,
    region_cols: u16,
    row_bits: u8,
    col_bits: u8,
    mesh_rows: u16,
    mesh_cols: u16,
}

impl RegionMap {
    /// Builds the mapping for a `grid_rows x grid_cols` VC grid and
    /// hypercube dimension `dim` (the paper considers "3, 4, 5, or 6").
    ///
    /// # Panics
    /// Panics if `dim` is 0 or greater than 16 (labels are stored in `u32`
    /// and realistic deployments use small dimensions).
    pub fn new(grid_rows: u16, grid_cols: u16, dim: u8) -> Self {
        assert!(
            (1..=16).contains(&dim),
            "hypercube dimension {dim} out of range 1..=16"
        );
        assert!(grid_rows > 0 && grid_cols > 0, "grid must be non-empty");
        let row_bits = dim.div_ceil(2);
        let col_bits = dim / 2;
        let region_rows = 1u16 << row_bits;
        let region_cols = 1u16 << col_bits;
        RegionMap {
            grid_rows,
            grid_cols,
            dim,
            region_rows,
            region_cols,
            row_bits,
            col_bits,
            mesh_rows: grid_rows.div_ceil(region_rows),
            mesh_cols: grid_cols.div_ceil(region_cols),
        }
    }

    /// Convenience: builds the mapping matching a [`VcGrid`].
    pub fn for_grid(grid: &VcGrid, dim: u8) -> Self {
        RegionMap::new(grid.rows(), grid.cols(), dim)
    }

    /// Hypercube dimension (system parameter).
    #[inline]
    pub fn dim(&self) -> u8 {
        self.dim
    }

    /// Rows of VCs per region.
    #[inline]
    pub fn region_rows(&self) -> u16 {
        self.region_rows
    }

    /// Columns of VCs per region.
    #[inline]
    pub fn region_cols(&self) -> u16 {
        self.region_cols
    }

    /// Mesh dimensions: (rows, cols) of the logical 2-D mesh.
    #[inline]
    pub fn mesh_dims(&self) -> (u16, u16) {
        (self.mesh_rows, self.mesh_cols)
    }

    /// Interleaves local (row, col) within a region into a hypercube label:
    /// bits from the MSB alternate row, col, row, col, …
    #[inline]
    pub fn interleave(&self, local_row: u16, local_col: u16) -> Hnid {
        debug_assert!(local_row < self.region_rows && local_col < self.region_cols);
        let mut label = 0u32;
        let mut r_taken = 0u8;
        let mut c_taken = 0u8;
        for i in 0..self.dim {
            let bit = if i % 2 == 0 && r_taken < self.row_bits {
                r_taken += 1;
                (local_row >> (self.row_bits - r_taken)) & 1
            } else if c_taken < self.col_bits {
                c_taken += 1;
                (local_col >> (self.col_bits - c_taken)) & 1
            } else {
                r_taken += 1;
                (local_row >> (self.row_bits - r_taken)) & 1
            };
            label = (label << 1) | bit as u32;
        }
        Hnid(label)
    }

    /// Inverse of [`RegionMap::interleave`].
    #[inline]
    pub fn deinterleave(&self, hnid: Hnid) -> (u16, u16) {
        let mut row = 0u16;
        let mut col = 0u16;
        let mut r_taken = 0u8;
        let mut c_taken = 0u8;
        for i in 0..self.dim {
            let bit = ((hnid.0 >> (self.dim - 1 - i)) & 1) as u16;
            if i % 2 == 0 && r_taken < self.row_bits {
                row = (row << 1) | bit;
                r_taken += 1;
            } else if c_taken < self.col_bits {
                col = (col << 1) | bit;
                c_taken += 1;
            } else {
                row = (row << 1) | bit;
                r_taken += 1;
            }
        }
        (row, col)
    }

    /// Maps a VC (equivalently a CHID) to its full logical address.
    ///
    /// # Panics
    /// Panics if `vc` lies outside the grid.
    pub fn address_of(&self, vc: VcId) -> LogicalAddress {
        assert!(
            vc.row < self.grid_rows && vc.col < self.grid_cols,
            "VC {vc} outside {}x{} grid",
            self.grid_rows,
            self.grid_cols
        );
        let hid = Hid::new(vc.row / self.region_rows, vc.col / self.region_cols);
        let local_row = vc.row % self.region_rows;
        let local_col = vc.col % self.region_cols;
        LogicalAddress {
            hid,
            hnid: self.interleave(local_row, local_col),
        }
    }

    /// Maps a logical address back to the VC grid cell. Returns `None` when
    /// the address falls outside the grid (possible for edge regions of a
    /// grid that is not an exact multiple of the region size — those labels
    /// are the "absent" nodes of an incomplete hypercube).
    pub fn vc_of(&self, addr: LogicalAddress) -> Option<VcId> {
        let (local_row, local_col) = self.deinterleave(addr.hnid);
        let row = addr
            .hid
            .row
            .checked_mul(self.region_rows)?
            .checked_add(local_row)?;
        let col = addr
            .hid
            .col
            .checked_mul(self.region_cols)?
            .checked_add(local_col)?;
        (row < self.grid_rows && col < self.grid_cols).then_some(VcId::new(row, col))
    }

    /// The hypercube (= mesh node) a VC belongs to.
    #[inline]
    pub fn hid_of(&self, vc: VcId) -> Hid {
        Hid::new(vc.row / self.region_rows, vc.col / self.region_cols)
    }

    /// All VC cells of a region, in row-major order. Cells are present even
    /// if no CH currently occupies them (the VCC is "only a placeholder",
    /// §3); cells beyond the grid edge are skipped.
    pub fn region_cells(&self, hid: Hid) -> Vec<VcId> {
        let mut out = Vec::with_capacity(self.region_rows as usize * self.region_cols as usize);
        for lr in 0..self.region_rows {
            for lc in 0..self.region_cols {
                let row = hid.row * self.region_rows + lr;
                let col = hid.col * self.region_cols + lc;
                if row < self.grid_rows && col < self.grid_cols {
                    out.push(VcId::new(row, col));
                }
            }
        }
        out
    }

    /// 1-logical-hop neighbours of a VC **within its own hypercube**: the
    /// union of its hypercube-link neighbours (labels at Hamming distance 1)
    /// and its grid-adjacent cells in the same region (the Fig. 3
    /// "additional logical links between hypercube nodes").
    pub fn intra_region_neighbors(&self, vc: VcId) -> Vec<VcId> {
        let addr = self.address_of(vc);
        let mut out: Vec<VcId> = Vec::new();
        // Hypercube links: flip each of the dim bits.
        for bit in 0..self.dim {
            let n = LogicalAddress {
                hid: addr.hid,
                hnid: Hnid(addr.hnid.0 ^ (1 << bit)),
            };
            if let Some(cell) = self.vc_of(n) {
                out.push(cell);
            }
        }
        // Grid-adjacency links within the same region.
        for (dr, dc) in [(-1i32, 0i32), (1, 0), (0, -1), (0, 1)] {
            let row = vc.row as i32 + dr;
            let col = vc.col as i32 + dc;
            if row < 0 || col < 0 || row >= self.grid_rows as i32 || col >= self.grid_cols as i32 {
                continue;
            }
            let n = VcId::new(row as u16, col as u16);
            if self.hid_of(n) == addr.hid && !out.contains(&n) {
                out.push(n);
            }
        }
        out.sort_unstable();
        out
    }

    /// Inter-region neighbours: grid-adjacent cells that lie in a
    /// *different* region. Non-empty exactly for Border CHs.
    pub fn inter_region_neighbors(&self, vc: VcId) -> Vec<VcId> {
        let hid = self.hid_of(vc);
        let mut out = Vec::new();
        for (dr, dc) in [(-1i32, 0i32), (1, 0), (0, -1), (0, 1)] {
            let row = vc.row as i32 + dr;
            let col = vc.col as i32 + dc;
            if row < 0 || col < 0 || row >= self.grid_rows as i32 || col >= self.grid_cols as i32 {
                continue;
            }
            let n = VcId::new(row as u16, col as u16);
            if self.hid_of(n) != hid {
                out.push(n);
            }
        }
        out
    }

    /// All 1-logical-hop neighbours (intra-region plus inter-region).
    pub fn logical_neighbors(&self, vc: VcId) -> Vec<VcId> {
        let mut out = self.intra_region_neighbors(vc);
        out.extend(self.inter_region_neighbors(vc));
        out
    }

    /// Classifies a CH position as Border or Inner (paper §4.1).
    pub fn ch_kind(&self, vc: VcId) -> ChKind {
        if self.inter_region_neighbors(vc).is_empty() {
            ChKind::Inner
        } else {
            ChKind::Border
        }
    }

    /// Mesh 4-neighbourhood of a hypercube in the region grid.
    pub fn mesh_neighbors(&self, hid: Hid) -> Vec<Hid> {
        let mut out = Vec::with_capacity(4);
        if hid.row > 0 {
            out.push(Hid::new(hid.row - 1, hid.col));
        }
        if hid.row + 1 < self.mesh_rows {
            out.push(Hid::new(hid.row + 1, hid.col));
        }
        if hid.col > 0 {
            out.push(Hid::new(hid.row, hid.col - 1));
        }
        if hid.col + 1 < self.mesh_cols {
            out.push(Hid::new(hid.row, hid.col + 1));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 2/Fig. 3 configuration: 8x8 VCs, dimension 4,
    /// hence four 4-dimensional logical hypercubes in a 2x2 mesh.
    fn fig2_map() -> RegionMap {
        RegionMap::new(8, 8, 4)
    }

    #[test]
    fn fig2_has_four_4d_hypercubes() {
        let m = fig2_map();
        assert_eq!(m.dim(), 4);
        assert_eq!(m.region_rows(), 4);
        assert_eq!(m.region_cols(), 4);
        assert_eq!(m.mesh_dims(), (2, 2));
        assert_eq!(m.region_cells(Hid::new(0, 0)).len(), 16);
    }

    #[test]
    fn fig3_label_layout_matches_paper() {
        // Fig. 3 lays out the 4x4 region as:
        //   0000 0001 0100 0101
        //   0010 0011 0110 0111
        //   1000 1001 1100 1101
        //   1010 1011 1110 1111
        let m = fig2_map();
        let expected = [
            ["0000", "0001", "0100", "0101"],
            ["0010", "0011", "0110", "0111"],
            ["1000", "1001", "1100", "1101"],
            ["1010", "1011", "1110", "1111"],
        ];
        for (r, row) in expected.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                let got = m.interleave(r as u16, c as u16);
                assert_eq!(got.to_bits(4), *want, "cell ({r},{c})");
                assert_eq!(m.deinterleave(got), (r as u16, c as u16));
            }
        }
    }

    #[test]
    fn fig3_node_1000_one_hop_routes() {
        // Paper §4.1: "The 1-logical hop routes include: 1000 -> 1001,
        // 1000 -> 1010, 1000 -> 0010, 1000 -> 1100, 1000 -> 0000, and some
        // route(s) to its adjacent logical hypercube(s)."
        let m = fig2_map();
        // 1000 sits at local (row 2, col 0); take the bottom-left region
        // (Hid (1,0)) so it also has inter-region neighbours to the right.
        let vc = VcId::new(4 + 2, 0); // grid row 6, col 0
        assert_eq!(m.address_of(vc).hnid.to_bits(4), "1000");
        let neigh: Vec<String> = m
            .intra_region_neighbors(vc)
            .iter()
            .map(|n| m.address_of(*n).hnid.to_bits(4))
            .collect();
        let mut sorted = neigh.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["0000", "0010", "1001", "1010", "1100"]);
    }

    #[test]
    fn fig3_two_hop_route_examples_are_one_hop_chains() {
        // Paper: "the number of logical hops that comprise 1-logical hop
        // routes of 1000 -> 1100 -> 1101 is 2", and "The 2-logical hop
        // routes include: 1000 -> 1001 -> 1100, 1000 -> 1100 -> 1101,
        // 1000 -> 0010 -> 0011, 1000 -> 0010 -> 0110".
        let m = fig2_map();
        let cell = |bits: &str| {
            m.vc_of(LogicalAddress {
                hid: Hid::new(0, 0),
                hnid: Hnid::from_bits(bits).unwrap(),
            })
            .unwrap()
        };
        let chains = [
            ["1000", "1001", "1100"],
            ["1000", "1100", "1101"],
            ["1000", "0010", "0011"],
            ["1000", "0010", "0110"],
        ];
        for chain in chains {
            for hop in chain.windows(2) {
                let a = cell(hop[0]);
                let b = cell(hop[1]);
                assert!(
                    m.intra_region_neighbors(a).contains(&b),
                    "{} -> {} must be a 1-logical-hop route",
                    hop[0],
                    hop[1]
                );
            }
        }
    }

    #[test]
    fn address_round_trips_for_all_cells() {
        for dim in 1..=7u8 {
            let m = RegionMap::new(16, 16, dim);
            for row in 0..16 {
                for col in 0..16 {
                    let vc = VcId::new(row, col);
                    let addr = m.address_of(vc);
                    assert_eq!(m.vc_of(addr), Some(vc), "dim {dim} vc {vc}");
                }
            }
        }
    }

    #[test]
    fn labels_are_unique_within_region() {
        let m = RegionMap::new(8, 8, 4);
        let cells = m.region_cells(Hid::new(1, 1));
        let mut labels: Vec<u32> = cells.iter().map(|c| m.address_of(*c).hnid.0).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 16);
        assert_eq!(*labels.last().unwrap(), 15);
    }

    #[test]
    fn grid_adjacent_cells_in_region_are_close_in_hamming() {
        // Vertically adjacent rows differ in row index by 1, whose binary
        // representations can differ in several bits, but the layout keeps
        // every grid-adjacency a *logical* link regardless.
        let m = fig2_map();
        let a = VcId::new(1, 0); // 0010
        let b = VcId::new(2, 0); // 1000
        let ha = m.address_of(a).hnid;
        let hb = m.address_of(b).hnid;
        assert_eq!(ha.hamming(hb), 2); // not a hypercube link...
        assert!(m.intra_region_neighbors(a).contains(&b)); // ...but 1 logical hop.
    }

    #[test]
    fn border_and_inner_classification() {
        let m = fig2_map();
        // Grid corner cell of region (0,0): inner w.r.t. other regions.
        assert_eq!(m.ch_kind(VcId::new(0, 0)), ChKind::Inner);
        // Cell on the seam between regions (0,0) and (0,1).
        assert_eq!(m.ch_kind(VcId::new(0, 3)), ChKind::Border);
        assert_eq!(m.ch_kind(VcId::new(3, 3)), ChKind::Border);
        // Centre cells of a region are inner.
        assert_eq!(m.ch_kind(VcId::new(1, 1)), ChKind::Inner);
    }

    #[test]
    fn border_chs_have_inter_region_links() {
        let m = fig2_map();
        let vc = VcId::new(0, 3);
        let inter = m.inter_region_neighbors(vc);
        assert_eq!(inter, vec![VcId::new(0, 4)]);
        assert_eq!(m.hid_of(VcId::new(0, 4)), Hid::new(0, 1));
    }

    #[test]
    fn odd_dimension_regions_are_taller_than_wide() {
        let m = RegionMap::new(16, 16, 5);
        assert_eq!(m.region_rows(), 8); // ceil(5/2) = 3 bits
        assert_eq!(m.region_cols(), 4); // floor(5/2) = 2 bits
        assert_eq!(m.mesh_dims(), (2, 4));
    }

    #[test]
    fn dim_one_and_two_degenerate_sanely() {
        let m1 = RegionMap::new(4, 4, 1);
        assert_eq!(m1.region_rows(), 2);
        assert_eq!(m1.region_cols(), 1);
        let m2 = RegionMap::new(4, 4, 2);
        assert_eq!(m2.region_rows(), 2);
        assert_eq!(m2.region_cols(), 2);
        let addr = m2.address_of(VcId::new(1, 1));
        assert_eq!(addr.hnid.to_bits(2), "11");
    }

    #[test]
    fn non_multiple_grids_yield_incomplete_edge_regions() {
        // 6x6 grid with 4x4 regions: edge regions are truncated, i.e. the
        // logical hypercubes there are incomplete (generalised Katseff).
        let m = RegionMap::new(6, 6, 4);
        assert_eq!(m.mesh_dims(), (2, 2));
        assert_eq!(m.region_cells(Hid::new(0, 0)).len(), 16);
        assert_eq!(m.region_cells(Hid::new(0, 1)).len(), 8);
        assert_eq!(m.region_cells(Hid::new(1, 1)).len(), 4);
        // Addresses of absent cells map back to None.
        let absent = LogicalAddress {
            hid: Hid::new(0, 1),
            hnid: Hnid::from_bits("0101").unwrap(), // local col 3 -> grid col 7
        };
        assert_eq!(m.vc_of(absent), None);
    }

    #[test]
    fn mesh_neighbors_match_mesh_shape() {
        let m = RegionMap::new(16, 16, 4); // 4x4 mesh
        assert_eq!(m.mesh_dims(), (4, 4));
        assert_eq!(m.mesh_neighbors(Hid::new(0, 0)).len(), 2);
        assert_eq!(m.mesh_neighbors(Hid::new(1, 1)).len(), 4);
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        assert_eq!(Hid::new(0, 0).mesh_distance(Hid::new(2, 3)), 5);
        assert_eq!(Hid::new(1, 1).mesh_distance(Hid::new(1, 1)), 0);
        assert_eq!(Hid::new(3, 0).mesh_distance(Hid::new(0, 0)), 3);
    }

    #[test]
    fn hid_mnid_one_to_one() {
        let h = Hid::new(2, 5);
        assert_eq!(h.mnid().hid(), h);
    }

    #[test]
    fn bits_parse_and_render() {
        let h = Hnid::from_bits("1011").unwrap();
        assert_eq!(h.0, 0b1011);
        assert_eq!(h.to_bits(4), "1011");
        assert_eq!(h.to_bits(6), "001011");
        assert_eq!(Hnid(0).to_bits(3), "000");
    }
}

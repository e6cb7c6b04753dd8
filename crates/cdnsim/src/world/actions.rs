//! Timer-driven dispatch: the [`Action`] state machine and the
//! [`tcpsim::App`] callbacks that drive a query through its lifecycle
//! (FE serve, BE reply, direct reply, failover and hedge timers).

use super::*;

impl ServiceWorld {
    pub(super) fn push_action(&mut self, net: &mut Net, delay: SimDuration, action: Action) {
        // Token values only name table slots; they never order events.
        let token = match self.free_actions.pop() {
            Some(t) => {
                self.actions[t as usize] = Some(action);
                t
            }
            None => {
                self.actions.push(Some(action));
                self.actions.len() as u64 - 1
            }
        };
        net.set_timer(delay, token);
    }

    pub(super) fn push_action_at(&mut self, net: &mut Net, at: SimTime, action: Action) {
        let delay = at.saturating_since(net.now());
        self.push_action(net, delay, action);
    }

    /// The request has fully arrived: admission control, then the FE
    /// service interval (load/brownout-stretched) or, without split
    /// TCP, direct BE processing.
    pub(super) fn handle_request_arrived(&mut self, net: &mut Net, qid: u64) {
        let (fe, be, kw_id, followup) = {
            let q = &self.queries[&qid];
            (q.fe, q.be, q.keyword, q.instant_followup)
        };
        if self.cfg.split_tcp {
            let fe = fe.expect("split mode has an FE");
            // Admission control: above the watermark the request is
            // answered with the shed stub before consuming any FE
            // capacity.
            if let Some(adm) = self.cfg.overload.admission {
                if self.fe_inflight[fe] >= adm.watermark {
                    let client_conn = self.shed_query_state(qid);
                    net.send(
                        client_conn,
                        End::B,
                        SHED_STUB_BYTES,
                        Marker::Error,
                        SHED_CONTENT_ID,
                    );
                    net.close(client_conn, End::B);
                    return;
                }
            }
            self.fe_inflight[fe] += 1;
            self.queries.get_mut(&qid).unwrap().fe_counted = true;
            if self.overload_active() {
                self.metrics
                    .set_gauge("cdnsim.fe_inflight_hiwater", self.fe_inflight[fe] as f64);
            }
            let mut overhead = self.fes[fe].request_overhead_at(net.now());
            // Brownout windows stretch FE processing.
            let slow = self.cfg.faults.fe_slowdown(fe, net.now());
            if slow > 1.0 {
                overhead = SimDuration::from_millis_f64(overhead.as_millis_f64() * slow);
            }
            // Concurrency-dependent queueing delay (the load model's
            // M/M/1-style curve), with capacity-dip fault windows
            // scaling the knee.
            if let Some(model) = self.cfg.load_model {
                let factor = self.cfg.faults.fe_capacity_factor(fe, net.now());
                let qslow = model.fe_slowdown(self.fe_inflight[fe], factor);
                if qslow > 1.0 {
                    overhead = SimDuration::from_millis_f64(overhead.as_millis_f64() * qslow);
                }
            }
            self.queries.get_mut(&qid).unwrap().fe_overhead_ms = overhead.as_millis_f64();
            self.push_action(net, overhead, Action::FeServe { qid });
        } else {
            let region = Some(self.clients[self.queries[&qid].client].region);
            let kw = self.corpus.get(kw_id);
            let result = self.bes[be].1.handle_query(kw, followup, region);
            {
                let q = self.queries.get_mut(&qid).unwrap();
                q.proc_ms = result.proc_time.as_millis_f64();
                q.plan = Some(result.plan);
            }
            self.push_action(net, result.proc_time, Action::BeDirectReply { qid });
        }
    }

    /// The FE's serve instant: burst the cached static portion, then
    /// answer from the result cache, fast-fail to the degraded stub
    /// while the circuit breaker is open, or forward to the BE.
    pub(super) fn act_fe_serve(&mut self, net: &mut Net, qid: u64) {
        let (client_conn, fe, kw_id) = match self.queries.get(&qid) {
            Some(q) => (q.client_conn, q.fe.unwrap(), q.keyword),
            // Stale timer: the client's deadline can fire before a
            // load-stretched FE service interval elapses, abandoning
            // the query while this action is still pending.
            None => return,
        };
        // (a) Burst the static portion when it is resident in the FE's
        // static cache. With the default unbounded prewarmed cache this
        // always hits; a bounded cache can miss, in which case the
        // static bytes ride the BE response and the cache is refilled
        // when that response completes.
        let mut static_hit = false;
        if self.cfg.cache_static {
            let content = self.cfg.composer.static_content;
            if self.fes[fe].static_cached(content, net.now()) {
                static_hit = true;
                self.metrics.inc("cdnsim.fe_static_cache_hits");
                let bytes = self.cfg.composer.static_bytes;
                net.send(client_conn, End::B, bytes, Marker::Static, content);
            } else {
                self.metrics.inc("cdnsim.fe_static_cache_misses");
            }
        }
        self.queries.get_mut(&qid).unwrap().static_from_cache = static_hit;
        // Hypothetical FE result cache.
        if self.fes[fe].caches_results() {
            if let Some(plan) = self.fes[fe].lookup_result(kw_id, net.now()) {
                self.metrics.inc("cdnsim.fe_result_cache_hits");
                if !static_hit {
                    plan.send_static(net, client_conn, End::B);
                }
                plan.send_dynamic(net, client_conn, End::B);
                net.close(client_conn, End::B);
                let q = self.queries.get_mut(&qid).unwrap();
                q.plan = Some(plan);
                q.proc_ms = 0.0;
                return;
            }
            self.metrics.inc("cdnsim.fe_result_cache_misses");
        }
        // Circuit breaker: while open, fetches fast-fail straight to the
        // degraded response instead of hammering a struggling back-end.
        if !self.breaker_admits(fe, net.now()) {
            self.metrics.inc("cdnsim.breaker_fastfails");
            self.degrade_query_state(qid);
            Self::send_degraded_stub(net, client_conn);
            return;
        }
        self.fetch_start(net, qid);
    }

    /// Closes the client leg with the degraded stub in place of the
    /// dynamic portion.
    fn send_degraded_stub(net: &mut Net, client_conn: ConnId) {
        net.send(
            client_conn,
            End::B,
            DEGRADED_STUB_BYTES,
            Marker::Error,
            DEGRADED_CONTENT_ID,
        );
        net.close(client_conn, End::B);
    }

    /// (b) Forward the query over a persistent BE connection as fetch
    /// attempt 0, stamping the fetch start.
    pub(super) fn fetch_start(&mut self, net: &mut Net, qid: u64) {
        let (fe, be) = {
            let q = &self.queries[&qid];
            (q.fe.unwrap(), q.be)
        };
        let conn = self.open_leg(net, qid, fe, be, Slot::Primary);
        self.queries.get_mut(&qid).unwrap().fetch_start = Some(net.now());
        self.send_fetch(net, qid, conn, 0);
    }

    /// Sends the BE query on `conn` as fetch attempt `attempt`, then
    /// arms that attempt's deadline and hedge timers, in that order.
    fn send_fetch(&mut self, net: &mut Net, qid: u64, conn: ConnId, attempt: u32) {
        self.queries[&qid].req.send_as_be_query(net, conn, End::A);
        if let Some(d) = self.cfg.fe_fetch_deadline {
            self.push_action(net, d, Action::FetchDeadline { qid, attempt });
        }
        if let Some(h) = self.cfg.overload.hedge {
            self.push_action(net, h.after, Action::HedgeFire { qid, attempt });
        }
    }

    /// The BE of leg `slot` finished processing: stream the
    /// (optionally piggy-backed) static portion and the dynamic response
    /// back to the FE. A reply for an earlier fetch attempt, or for a
    /// leg that was cancelled or already won, is stale and sends nothing.
    pub(super) fn act_be_reply(&mut self, net: &mut Net, qid: u64, attempt: u32, slot: Slot) {
        let q = match self.queries.get_mut(&qid) {
            Some(q) if q.fetch_attempts == attempt => q,
            _ => return,
        };
        let static_too = !q.static_from_cache;
        let (conn, plan) = match q.leg(slot) {
            Some(FetchLeg {
                conn,
                plan: Some(plan),
                ..
            }) => (*conn, plan),
            _ => return,
        };
        if static_too {
            net.send(
                conn,
                End::B,
                plan.static_bytes,
                Marker::BeResponse,
                plan.static_content,
            );
        }
        plan.send_as_be_response(net, conn, End::B);
    }

    /// The no-split BE finished processing: it replies straight down the
    /// client connection and closes.
    pub(super) fn act_be_direct_reply(&mut self, net: &mut Net, qid: u64) {
        let (conn, plan) = match self.queries.get(&qid) {
            Some(q) => (q.client_conn, q.plan.clone().expect("direct reply plan")),
            // The client deadline abandoned the query while the BE was
            // still processing it.
            None => return,
        };
        plan.send_static(net, conn, End::B);
        plan.send_dynamic(net, conn, End::B);
        net.close(conn, End::B);
    }

    /// The FE holds the full BE response of leg `slot`: that leg wins.
    /// Cancel the losing leg, return the winner's connection to the
    /// pool, feed the breaker, adopt the winner's BE and result as the
    /// query's ground truth, refill the FE caches, and serve the client:
    /// the static portion (unless it already burst from the FE cache),
    /// the dynamic portion, FIN.
    fn complete_fetch(&mut self, net: &mut Net, qid: u64, slot: Slot) {
        let q = self.queries.get_mut(&qid).unwrap();
        q.fetch_done = Some(net.now());
        let (won, lost) = match slot {
            Slot::Primary => (q.fetch.take(), q.hedge.take()),
            Slot::Hedge => (q.hedge.take(), q.fetch.take()),
        };
        let mut won = won.unwrap();
        let plan = won.plan.take().unwrap();
        q.proc_ms = won.proc_ms;
        q.plan = Some(plan.clone());
        let (fe, kw_id, client_conn) = (q.fe.unwrap(), q.keyword, q.client_conn);
        let static_from_cache = q.static_from_cache;
        if let Some(leg) = lost {
            self.drop_leg(net, leg, None);
        }
        let be = won.be;
        self.drop_leg(net, won, Some(fe));
        self.breaker_record_success(fe);
        if slot == Slot::Hedge {
            // A hedge win moves the query to the hedge's site.
            self.metrics.inc("cdnsim.hedge_wins");
            let (rtt, dist) = (self.fe_be_rtt_ms(fe, be), self.fe_be_distance_miles(fe, be));
            let q = self.queries.get_mut(&qid).unwrap();
            (q.be, q.rtt_fe_be_ms, q.dist_fe_be_miles) = (be, rtt, dist);
        }
        // Refill the static cache after a miss-path fetch (only reachable
        // with a bounded static cache).
        if self.cfg.cache_static && !static_from_cache {
            self.fes[fe].fill_static(plan.static_content, plan.static_bytes, net.now());
            self.metrics.inc("cdnsim.fe_static_cache_fills");
        }
        if self.fes[fe].caches_results() {
            let out = self.fes[fe].store_result(kw_id, plan.clone(), net.now());
            if out.evicted > 0 {
                self.metrics
                    .add("cdnsim.fe_result_cache_evictions", out.evicted);
            }
        }
        if !static_from_cache {
            plan.send_static(net, client_conn, End::B);
        }
        plan.send_dynamic(net, client_conn, End::B);
        net.close(client_conn, End::B);
    }

    /// FE fetch deadline fired: the BE response for fetch attempt
    /// `attempt` has not fully arrived. Cancel the attempt's legs, then
    /// fail over to the next live BE site on a (possibly cold)
    /// connection, or degrade the response when no live site remains.
    pub(super) fn act_fetch_deadline(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let (fe, cur_be, stalled, hedge) = match self.queries.get_mut(&qid) {
            // Completed, degraded or already failed over: stale timer.
            Some(q) if q.fetch_attempts == attempt && q.fetch.is_some() => {
                let stalled = q.fetch.take().unwrap();
                // A BE that processed the query before stalling stays the
                // ground truth until a later leg's BE replaces it.
                if stalled.plan.is_some() {
                    q.proc_ms = stalled.proc_ms;
                }
                (q.fe.unwrap(), q.be, stalled, q.hedge.take())
            }
            _ => return,
        };
        // The fetch attempt failed: cancel its legs and feed the FE's
        // circuit breaker.
        self.drop_leg(net, stalled, None);
        if let Some(leg) = hedge {
            self.drop_leg(net, leg, None);
        }
        self.breaker_record_failure(fe, net.now());
        let now = net.now();
        let next_be = self.nearest_live_be(fe, now, Some(cur_be));
        let next_be = match next_be {
            // One failover per site at most: once every site has been
            // given a deadline's worth of time, serve what we have.
            Some(b) if (attempt as usize) < self.bes.len().saturating_sub(1) => b,
            _ => {
                let client_conn = self.degrade_query_state(qid);
                Self::send_degraded_stub(net, client_conn);
                return;
            }
        };
        let rtt = self.fe_be_rtt_ms(fe, next_be);
        let dist = self.fe_be_distance_miles(fe, next_be);
        self.metrics.inc("cdnsim.fetch_failovers");
        {
            let q = self.queries.get_mut(&qid).unwrap();
            q.be = next_be;
            q.fetch_attempts += 1;
            q.rtt_fe_be_ms = rtt;
            q.dist_fe_be_miles = dist;
        }
        // Not `fetch_start`: a failover keeps the query's original
        // `fetch_start` stamp (fetch latency spans all attempts).
        let conn = self.open_leg(net, qid, fe, next_be, Slot::Primary);
        self.send_fetch(net, qid, conn, attempt + 1);
    }

    /// Hedge timer fired with the primary fetch still outstanding:
    /// duplicate the query to the next-nearest live BE site. First
    /// response wins; the loser is cancelled.
    pub(super) fn act_hedge_fire(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let (fe, cur_be) = match self.queries.get(&qid) {
            // Completed, degraded, failed over, or already hedged: the
            // timer is stale (hedges are per fetch attempt).
            Some(q) if q.fetch_attempts == attempt && q.fetch.is_some() && q.hedge.is_none() => {
                (q.fe.unwrap(), q.be)
            }
            _ => return,
        };
        let now = net.now();
        let hedge_be = match self.nearest_live_be(fe, now, Some(cur_be)) {
            Some(b) => b,
            None => return, // nowhere to hedge to
        };
        self.metrics.inc("cdnsim.hedges_launched");
        let conn = self.open_leg(net, qid, fe, hedge_be, Slot::Hedge);
        // The hedge arms no deadline or hedge timer of its own.
        self.queries[&qid].req.send_as_be_query(net, conn, End::A);
    }

    /// Runs the query's keyword through BE `be`'s query handler and
    /// stretches the processing time under the load model.
    fn be_process(&mut self, qid: u64, be: usize) -> (SimDuration, ResponsePlan) {
        let (kw_id, followup, client) = {
            let q = &self.queries[&qid];
            (q.keyword, q.instant_followup, q.client)
        };
        let region = Some(self.clients[client].region);
        let kw = self.corpus.get(kw_id);
        let result = self.bes[be].1.handle_query(kw, followup, region);
        let mut proc = result.proc_time;
        // BE concurrency slowdown: processing time stretches with the
        // queue at this BE site.
        if let Some(model) = self.cfg.load_model {
            let slow = model.be_slowdown(self.be_inflight[be]);
            if slow > 1.0 {
                proc = SimDuration::from_millis_f64(proc.as_millis_f64() * slow);
            }
        }
        (proc, result.plan)
    }
}

impl App for ServiceWorld {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        if info.leg == Leg::Client && end == End::A {
            if let Some(q) = self.queries.get(&info.qid) {
                let req = q.req.clone();
                req.send(net, conn, End::A);
            }
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        match info.leg {
            Leg::Warmup { fe, be } => {
                let entry = self.warmup_progress.entry(conn).or_insert((0, 0));
                let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
                match end {
                    End::B => {
                        entry.0 += bytes;
                        if entry.0 >= WARMUP_REQ_BYTES {
                            net.send(conn, End::B, WARMUP_RESP_BYTES, Marker::Other, 0);
                        }
                    }
                    End::A => {
                        entry.1 += bytes;
                        if entry.1 >= WARMUP_RESP_BYTES {
                            self.warmup_progress.remove(&conn);
                            self.return_be_conn(conn, fe, be);
                        }
                    }
                }
            }
            Leg::Client => {
                // Only the server side of the client leg (FE, or BE when
                // split TCP is off) tracks bytes: the request. The
                // client's response completes with the FIN.
                if end == End::A {
                    return;
                }
                let qid = info.qid;
                let q = match self.queries.get_mut(&qid) {
                    Some(q) => q,
                    None => return,
                };
                q.req_progress.absorb(spans);
                if q.request_handled || !q.req_progress.complete(Marker::Request, q.req.bytes) {
                    return;
                }
                q.request_handled = true;
                self.handle_request_arrived(net, qid);
            }
            Leg::Fetch(slot) => {
                let qid = info.qid;
                let q = match self.queries.get_mut(&qid) {
                    Some(q) => q,
                    None => return,
                };
                let (req_bytes, static_from_cache) = (q.req.bytes, q.static_from_cache);
                let leg = match q.leg(slot) {
                    Some(leg) => leg,
                    None => return,
                };
                match end {
                    End::B => {
                        // The BE receiving the forwarded query.
                        leg.query_progress.absorb(spans);
                        if leg.handled || !leg.query_progress.complete(Marker::BeQuery, req_bytes) {
                            return;
                        }
                        leg.handled = true;
                        let be = leg.be;
                        let (proc, plan) = self.be_process(qid, be);
                        let q = self.queries.get_mut(&qid).unwrap();
                        let attempt = q.fetch_attempts;
                        let leg = q.leg(slot).as_mut().unwrap();
                        leg.proc_ms = proc.as_millis_f64();
                        leg.plan = Some(plan);
                        self.push_action(net, proc, Action::BeReply { qid, attempt, slot });
                    }
                    End::A => {
                        // The FE receiving the BE response.
                        leg.resp_progress.absorb(spans);
                        let expected = leg.expected_bytes(static_from_cache);
                        if leg.resp_progress.complete(Marker::BeResponse, expected) {
                            self.complete_fetch(net, qid, slot);
                        }
                    }
                }
            }
        }
    }

    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        if info.leg == Leg::Client && end == End::A {
            self.finish_query(net, info.qid);
        }
    }

    fn on_timer(&mut self, net: &mut Net, token: u64) {
        let action = self.actions[token as usize]
            .take()
            .expect("app timer fired twice");
        self.free_actions.push(token);
        match action {
            Action::Start(spec) => self.start_query(net, spec, 0),
            Action::StartRetry { spec, attempt } => self.start_query(net, spec, attempt),
            Action::FeServe { qid } => self.act_fe_serve(net, qid),
            Action::BeReply { qid, attempt, slot } => self.act_be_reply(net, qid, attempt, slot),
            Action::BeDirectReply { qid } => self.act_be_direct_reply(net, qid),
            Action::ClientDeadline { qid } => self.act_client_deadline(net, qid),
            Action::FetchDeadline { qid, attempt } => self.act_fetch_deadline(net, qid, attempt),
            Action::HedgeFire { qid, attempt } => self.act_hedge_fire(net, qid, attempt),
            Action::FaultStart { window } => self.act_fault_start(net, window),
            Action::MappingEpoch => self.act_mapping_epoch(net),
        }
    }
}

// Fixture: full tick/skip stat parity plus a justified ff-exempt
// write, with stats_ members and with per-thread references —
// ff-stat-parity must stay silent.
namespace fx
{

struct DrainStats
{
    unsigned long busyCycles = 0;
    unsigned long drained = 0;
    unsigned long bursts = 0;
};

class DrainMeter
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        ++stats_.busyCycles;
        applyDrain();
        // spburst-lint: ff-exempt -- bursts only start on new stores,
        // and a quiescent cycle accepts none
        ++stats_.bursts;
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        stats_.busyCycles += n;
        stats_.drained += n;
    }

  private:
    void applyDrain()
    {
        ++stats_.drained;
    }

    DrainStats stats_;
};

struct LaneStats
{
    unsigned long cycles = 0;
    unsigned long retired = 0;
};

struct Lane
{
    LaneStats stats;
};

class LanedMeter
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        Lane &lane = lanes_[0];
        ++lane.stats.cycles;
        retire(lane);
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        Lane &lane = lanes_[0];
        lane.stats.cycles += n;
        lane.stats.retired += n;
    }

  private:
    void retire(Lane &lane)
    {
        ++lane.stats.retired;
    }

    Lane lanes_[2];
};

} // namespace fx
